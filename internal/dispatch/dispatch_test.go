package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/iofault"
	"camouflage/internal/obs"
)

// tableJob is a deterministic job whose table depends only on its name,
// so a dispatched result can be byte-compared against a local run.
func tableJob(name string) campaign.Job {
	return campaign.Job{
		Name: name,
		Spec: "spec of " + name,
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			// Instrument and beat like a real simulation: one counter
			// increment, one grid heartbeat carrying the delta.
			if b := obs.FromContext(ctx); b != nil && b.Registry != nil {
				b.Registry.Counter("test.runs").Inc()
			}
			time.Sleep(3 * time.Millisecond) // outlive the beat throttle
			if hb := core.HeartbeatFuncFromContext(ctx); hb != nil {
				hb(core.Heartbeat{Cycle: 100})
			}
			t := &harness.Table{Title: name, Columns: []string{"k", "v"}}
			t.AddRow(name, "ok")
			return t, nil
		},
	}
}

// fleet spins up a supervisor plus n in-process workers and tears them
// down with the test.
func fleet(t *testing.T, cfg SupervisorConfig, n int, wcfg WorkerConfig) (*Supervisor, func()) {
	t.Helper()
	sup := NewSupervisor(cfg)
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := wcfg
		w.Addr = addr.String()
		if w.ID == "" {
			w.ID = fmt.Sprintf("w%d", i)
		} else {
			w.ID = fmt.Sprintf("%s%d", w.ID, i)
		}
		if w.Token == "" {
			w.Token = cfg.Token
		}
		if w.Jobs == nil {
			w.Jobs = cfg.Jobs
		}
		w.Backoff, w.MaxBackoff = time.Millisecond, 20*time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, w)
		}()
	}
	// Wait for the fleet to connect so tests don't race the handshake
	// into the degraded path.
	deadline := time.Now().Add(5 * time.Second)
	for sup.Workers() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n > 0 && sup.Workers() < n {
		t.Fatalf("fleet never connected: %d of %d workers", sup.Workers(), n)
	}
	return sup, func() {
		sup.Close()
		cancel()
		wg.Wait()
	}
}

func TestDispatchEndToEnd(t *testing.T) {
	jobs := []campaign.Job{tableJob("alpha"), tableJob("beta"), tableJob("gamma"), tableJob("delta")}
	reg := obs.NewRegistry()
	sup, stop := fleet(t, SupervisorConfig{
		Token:          "secret",
		Jobs:           jobs,
		LeaseTTL:       2 * time.Second,
		HeartbeatEvery: time.Millisecond,
		Registry:       reg,
		Log:            t.Logf,
	}, 2, WorkerConfig{Token: "secret"})
	defer stop()

	opt := campaign.Options{Workers: 2, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Dispatcher: sup, Log: t.Logf}
	sum, err := campaign.Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(jobs) || sum.Failed != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	// Results must be byte-identical to a local in-process run.
	local, err := campaign.Run(context.Background(), jobs, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Results {
		if got, want := sum.Results[i].Table.String(), local.Results[i].Table.String(); got != want {
			t.Errorf("job %s: dispatched table diverges from local:\n got: %q\nwant: %q", jobs[i].Name, got, want)
		}
	}
	// Every job's single increment was merged under some fleet prefix
	// worker.<label>.<jobhash>.test.runs.
	for _, j := range jobs {
		total := 0.0
		for _, label := range []string{"w0", "w1"} {
			v, _ := reg.Value("worker." + label + "." + j.Hash() + ".test.runs")
			total += v
		}
		if total != 1 {
			t.Errorf("job %s: merged test.runs = %v across fleet, want 1", j.Name, total)
		}
	}
	if v, _ := reg.Value("campaign.dispatch.degraded"); v != 0 {
		t.Errorf("degraded gauge = %v with a live fleet", v)
	}
}

// TestDispatchZombieLeaseRejection is the satellite-3 scenario: a worker
// stalls past its lease, the job is re-leased and completed elsewhere,
// and the zombie's late result must be discarded, its metrics prefix
// zeroed, and the journal record the superseded attempt.
func TestDispatchZombieLeaseRejection(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	parked := make(chan struct{})
	job := campaign.Job{
		Name: "zjob",
		Spec: "zombie scenario",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			n := calls.Add(1)
			if b := obs.FromContext(ctx); b != nil && b.Registry != nil {
				b.Registry.Counter("test.zombie").Inc()
			}
			time.Sleep(5 * time.Millisecond) // clear the start-frame throttle
			if hb := core.HeartbeatFuncFromContext(ctx); hb != nil {
				hb(core.Heartbeat{Cycle: uint64(n)}) // ships the delta, renews the lease
			}
			if n == 1 {
				close(parked)
				<-release // silent: no more heartbeats, lease expires
			}
			tb := &harness.Table{Title: "zjob", Columns: []string{"k", "v"}}
			tb.AddRow("zjob", "ok")
			return tb, nil
		},
	}
	jobs := []campaign.Job{job}
	hash := job.Hash()
	reg := obs.NewRegistry()
	journal, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sup, stop := fleet(t, SupervisorConfig{
		Token:          "secret",
		Jobs:           jobs,
		LeaseTTL:       150 * time.Millisecond,
		HeartbeatEvery: time.Millisecond,
		Registry:       reg,
		Journal:        journal,
		Log:            t.Logf,
	}, 2, WorkerConfig{Token: "secret"})
	defer stop()

	table, err := sup.Execute(context.Background(), job, 1)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if table == nil || calls.Load() != 2 {
		t.Fatalf("job completed after %d calls (table %v), want re-leased 2nd call to win", calls.Load(), table)
	}
	<-parked
	close(release) // the zombie wakes and delivers its late result

	// The zombie's result frame is processed asynchronously; wait for
	// the rejection counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := reg.Value("campaign.dispatch.zombies_rejected"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("zombie result was never rejected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The journal recorded the superseded attempt with its fence and a
	// distinct class.
	var superseded []campaign.Record
	for _, rec := range journal.Records() {
		if rec.Status == campaign.StatusSuperseded {
			superseded = append(superseded, rec)
		}
	}
	if len(superseded) != 1 {
		t.Fatalf("superseded records = %d, want 1 (journal: %+v)", len(superseded), journal.Records())
	}
	zrec := superseded[0]
	if zrec.Hash != hash || zrec.Fence == 0 || zrec.Class != campaign.ClassSuperseded.String() || zrec.Worker == "" {
		t.Fatalf("superseded record malformed: %+v", zrec)
	}

	// The zombie's metrics prefix was zeroed; the winner's survives.
	zombiePrefix := "worker." + zrec.Worker + "." + hash + ".test.zombie"
	if v, ok := reg.Value(zombiePrefix); ok && v != 0 {
		t.Errorf("zombie metrics not zeroed: %s = %v", zombiePrefix, v)
	}
	var winner string
	for _, label := range []string{"w0", "w1"} {
		if label != zrec.Worker {
			winner = label
		}
	}
	if v, _ := reg.Value("worker." + winner + "." + hash + ".test.zombie"); v != 1 {
		t.Errorf("winner metrics lost: worker.%s.%s.test.zombie = %v, want 1", winner, hash, v)
	}
}

// TestDispatchExpiredLeaseLiveConnRecovery is the single-worker fleet
// scenario from review: the lease expires while the worker's connection
// stays alive (the attempt stalls, heartbeats stop). The supervisor must
// break the lease, fence out the stalled attempt's late (canceled)
// result as a zombie, and re-dispatch to the same — now idle — worker;
// the job must complete, never surface as fatally failed.
func TestDispatchExpiredLeaseLiveConnRecovery(t *testing.T) {
	var calls atomic.Int32
	job := campaign.Job{
		Name: "stall",
		Spec: "stalls past its lease on the first attempt",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if calls.Add(1) == 1 {
				// Go silent with the connection up: no beats, no result,
				// until the supervisor cancels the lease.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			tb := &harness.Table{Title: "stall", Columns: []string{"k", "v"}}
			tb.AddRow("stall", "ok")
			return tb, nil
		},
	}
	jobs := []campaign.Job{job}
	reg := obs.NewRegistry()
	journal, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sup, stop := fleet(t, SupervisorConfig{
		Token:          "secret",
		Jobs:           jobs,
		LeaseTTL:       120 * time.Millisecond,
		HeartbeatEvery: time.Millisecond,
		Registry:       reg,
		Journal:        journal,
		Log:            t.Logf,
	}, 1, WorkerConfig{Token: "secret"})
	defer stop()

	table, err := sup.Execute(context.Background(), job, 1)
	if err != nil {
		t.Fatalf("execute after expired lease: %v", err)
	}
	if table == nil || calls.Load() != 2 {
		t.Fatalf("job completed after %d calls (table %v), want stalled 1st + re-leased 2nd", calls.Load(), table)
	}
	// The stalled attempt's canceled result was fenced out, not accepted.
	if v, _ := reg.Value("campaign.dispatch.zombies_rejected"); v < 1 {
		t.Errorf("zombies_rejected = %v, want >= 1", v)
	}
	var superseded int
	for _, rec := range journal.Records() {
		if rec.Status == campaign.StatusSuperseded {
			superseded++
		}
	}
	if superseded != 1 {
		t.Errorf("superseded journal records = %d, want 1", superseded)
	}
}

// TestDispatchRemoteTransientFailureRetries: a worker-side transient
// failure whose result frame is delivered must release the lease, not
// complete the job — the retry attempt re-acquires under a fresh fence
// instead of dying on ErrLeaseDone.
func TestDispatchRemoteTransientFailureRetries(t *testing.T) {
	var calls atomic.Int32
	job := campaign.Job{
		Name: "flaky",
		Spec: "fails transiently once",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if calls.Add(1) == 1 {
				return nil, campaign.Transient(fmt.Errorf("injected transient failure"))
			}
			tb := &harness.Table{Title: "flaky", Columns: []string{"k", "v"}}
			tb.AddRow("flaky", "ok")
			return tb, nil
		},
	}
	jobs := []campaign.Job{job}
	sup, stop := fleet(t, SupervisorConfig{
		Token:          "secret",
		Jobs:           jobs,
		LeaseTTL:       2 * time.Second,
		HeartbeatEvery: time.Millisecond,
		Log:            t.Logf,
	}, 1, WorkerConfig{Token: "secret"})
	defer stop()

	if _, err := sup.Execute(context.Background(), job, 1); err == nil || campaign.Classify(err) != campaign.ClassTransient {
		t.Fatalf("first attempt: want transient error, got %v", err)
	}
	table, err := sup.Execute(context.Background(), job, 2)
	if err != nil {
		t.Fatalf("retry attempt: %v", err)
	}
	if table == nil || calls.Load() != 2 {
		t.Fatalf("retry ran %d calls (table %v), want 2", calls.Load(), table)
	}
}

func TestDispatchDegradedFallback(t *testing.T) {
	jobs := []campaign.Job{tableJob("solo")}
	fallback, err := campaign.NewLocalExecutor(campaign.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, stop := fleet(t, SupervisorConfig{
		Token:    "secret",
		Jobs:     jobs,
		Registry: reg,
		Fallback: fallback,
		Log:      t.Logf,
	}, 0, WorkerConfig{})
	defer stop()

	table, err := sup.Execute(context.Background(), jobs[0], 1)
	if err != nil {
		t.Fatalf("degraded execute: %v", err)
	}
	if table == nil || table.Title != "solo" {
		t.Fatalf("fallback table: %+v", table)
	}
	if v, _ := reg.Value("campaign.dispatch.degraded"); v != 1 {
		t.Errorf("degraded gauge = %v, want 1", v)
	}
	// No fallback configured: degraded dispatch fails transient.
	bare := NewSupervisor(SupervisorConfig{Jobs: jobs})
	if _, err := bare.Execute(context.Background(), jobs[0], 1); err == nil || campaign.Classify(err) != campaign.ClassTransient {
		t.Fatalf("no-fallback execute: %v", err)
	}
}

func TestDispatchHandshakeRefused(t *testing.T) {
	jobs := []campaign.Job{tableJob("a")}
	sup := NewSupervisor(SupervisorConfig{Token: "right", Jobs: jobs, Log: t.Logf})
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// Wrong token.
	err = RunWorker(context.Background(), WorkerConfig{
		Addr: addr.String(), Token: "wrong", Jobs: jobs, MaxDials: 1,
		Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
	})
	if !errors.Is(err, ErrHandshakeRefused) {
		t.Fatalf("wrong token: want ErrHandshakeRefused, got %v", err)
	}
	// Diverging job list.
	err = RunWorker(context.Background(), WorkerConfig{
		Addr: addr.String(), Token: "right", Jobs: []campaign.Job{tableJob("other")}, MaxDials: 1,
		Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
	})
	if !errors.Is(err, ErrHandshakeRefused) {
		t.Fatalf("fleet hash mismatch: want ErrHandshakeRefused, got %v", err)
	}
	if sup.Workers() != 0 {
		t.Fatalf("refused workers registered: %d", sup.Workers())
	}
}

// TestDispatchDrainRefusalRetried: "supervisor draining" is a transient
// refusal — a worker dialing into the drain window must back off and
// redial, reserving ErrHandshakeRefused for permanent rejections.
func TestDispatchDrainRefusalRetried(t *testing.T) {
	jobs := []campaign.Job{tableJob("a")}
	var dials atomic.Int32
	answer := func(c net.Conn, reply msg) {
		defer c.Close()
		var hello msg
		if err := campaign.ReadFrameJSON(c, &hello); err != nil {
			return
		}
		campaign.WriteFrameJSON(c, reply)
	}
	err := RunWorker(context.Background(), WorkerConfig{
		Addr: "pipe", Jobs: jobs, MaxDials: 5,
		Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Log: t.Logf,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			if dials.Add(1) < 3 {
				go answer(c2, msg{Type: msgHelloAck, Reason: "supervisor draining", Retry: true})
			} else {
				go answer(c2, msg{Type: msgHelloAck, Reason: "bad campaign token"})
			}
			return c1, nil
		},
	})
	if !errors.Is(err, ErrHandshakeRefused) {
		t.Fatalf("want ErrHandshakeRefused after drain retries, got %v", err)
	}
	if got := dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3 (two drain refusals retried, then a permanent one)", got)
	}
}

// TestDispatchAnonymousWorkerReconnectIdentity: a worker announcing no
// ID gets a supervisor-assigned one in the hello-ack and echoes it when
// it redials, so the reconnect is counted against the same fleet
// identity instead of minting a fresh address-based label per source
// port.
func TestDispatchAnonymousWorkerReconnectIdentity(t *testing.T) {
	jobs := []campaign.Job{tableJob("a")}
	reg := obs.NewRegistry()
	sup := NewSupervisor(SupervisorConfig{Token: "s", Jobs: jobs, Registry: reg, Log: t.Logf})
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conns := make(chan net.Conn, 8)
	handshook := make(chan struct{}, 8)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(ctx, WorkerConfig{
			Addr: addr.String(), Token: "s", Jobs: jobs, // ID deliberately empty
			Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
			Log: func(format string, args ...any) {
				t.Logf(format, args...)
				// Severing before the worker reads its hello-ack (and
				// assigned ID) would legitimately mint a fresh identity.
				if strings.HasPrefix(format, "dispatch worker: connected to") {
					handshook <- struct{}{}
				}
			},
			Dial: func(ctx context.Context, a string) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, "tcp", a)
				if err == nil {
					conns <- c
				}
				return c, err
			},
		})
	}()
	defer func() {
		// Close first: the worker's blocking read only breaks when its
		// connection does; cancel alone would deadlock wg.Wait.
		sup.Close()
		cancel()
		wg.Wait()
	}()

	first := <-conns
	<-handshook // the worker holds its assigned ID
	deadline := time.Now().Add(5 * time.Second)
	first.Close() // sever the link; the worker redials with its assigned ID
	for time.Now().Before(deadline) {
		if v, _ := reg.Value("campaign.dispatch.reconnects"); v >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("anonymous worker's reconnect was never counted (identity not stable across redials)")
}

// TestDispatchFleetGraceAnchoredAtServe: the FleetWait window opens when
// Serve begins accepting, not at construction — setup delay between
// NewSupervisor and Start must not shrink it into premature degradation.
func TestDispatchFleetGraceAnchoredAtServe(t *testing.T) {
	jobs := []campaign.Job{tableJob("g")}
	sup := NewSupervisor(SupervisorConfig{Jobs: jobs, FleetWait: 150 * time.Millisecond, Log: t.Logf})
	time.Sleep(250 * time.Millisecond) // longer than FleetWait: a construction-anchored window would have lapsed
	if _, err := sup.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := sup.Execute(ctx, jobs[0], 1)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("execute inside post-Serve grace: want deadline-bounded wait, got %v", err)
	}
	if strings.Contains(fmt.Sprint(err), "no reachable workers") {
		t.Fatalf("degraded inside the grace window: %v", err)
	}

	time.Sleep(150 * time.Millisecond) // the post-Serve window has now lapsed
	_, err = sup.Execute(context.Background(), jobs[0], 1)
	if err == nil || campaign.Classify(err) != campaign.ClassTransient || !strings.Contains(err.Error(), "no reachable workers") {
		t.Fatalf("execute after grace: want transient no-workers failure, got %v", err)
	}
}

func TestDispatchDrainStopsWorkers(t *testing.T) {
	jobs := []campaign.Job{tableJob("a")}
	sup := NewSupervisor(SupervisorConfig{Token: "s", Jobs: jobs, Log: t.Logf})
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Addr: addr.String(), Token: "s", Jobs: jobs,
			Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sup.Workers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	sup.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained worker returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on drain")
	}
}

// TestDispatchPartitionReconnect drives a fleet whose dial-side
// connections partition mid-stream (the satellite-2 primitive): the
// campaign must still complete with results byte-identical to a local
// run, and the supervisor must have observed at least one reconnect.
func TestDispatchPartitionReconnect(t *testing.T) {
	jobs := []campaign.Job{tableJob("p1"), tableJob("p2"), tableJob("p3")}
	reg := obs.NewRegistry()
	sup := NewSupervisor(SupervisorConfig{
		Token:          "secret",
		Jobs:           jobs,
		LeaseTTL:       300 * time.Millisecond,
		HeartbeatEvery: time.Millisecond,
		Registry:       reg,
		Log:            t.Logf,
	})
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Worker "flaky" always partitions a few hundred bytes into each
	// connection: it spends the test dying and re-handshaking. Worker
	// "solid" is healthy and carries the campaign to completion.
	inj := iofault.NewInjector(iofault.Options{Seed: 7, Partition: 1.0, PartitionBytes: 400})
	for _, w := range []WorkerConfig{
		{ID: "flaky", Faults: inj},
		{ID: "solid"},
	} {
		w.Addr, w.Token, w.Jobs = addr.String(), "secret", jobs
		w.Backoff, w.MaxBackoff = time.Millisecond, 10*time.Millisecond
		w.Log = t.Logf
		wg.Add(1)
		go func(w WorkerConfig) {
			defer wg.Done()
			RunWorker(ctx, w)
		}(w)
	}
	defer func() {
		sup.Close()
		cancel()
		wg.Wait()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sup.Workers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	opt := campaign.Options{Workers: 2, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Retries: 10, Dispatcher: sup, Log: t.Logf}
	sum, err := campaign.Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(jobs) || sum.Failed != 0 {
		t.Fatalf("summary under partitions: %+v", sum)
	}
	local, err := campaign.Run(context.Background(), jobs, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Results {
		if got, want := sum.Results[i].Table.String(), local.Results[i].Table.String(); got != want {
			t.Errorf("job %s under partitions diverges from local:\n got: %q\nwant: %q", jobs[i].Name, got, want)
		}
	}
	// The flaky worker keeps dying and re-handshaking independently of
	// the campaign; wait for proof that both the fault and the reconnect
	// path fired.
	for time.Now().Before(deadline) {
		v, _ := reg.Value("campaign.dispatch.reconnects")
		if inj.Stats().Partitions > 0 && v > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if inj.Stats().Partitions == 0 {
		t.Error("partition fault never fired")
	}
	if v, _ := reg.Value("campaign.dispatch.reconnects"); v == 0 {
		t.Error("flaky worker never re-handshaked")
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:43210": "127-0-0-1-43210",
		"w1":              "w1",
		"":                "unknown",
		"[::1]:80":        "---1--80",
		"a_b-C9":          "a_b-C9",
	}
	for in, want := range cases {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
