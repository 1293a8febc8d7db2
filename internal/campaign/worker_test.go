package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// TestMain lets the test binary serve as its own campaign worker: the
// process-isolation tests re-exec it with WorkerFlag and it must then
// rebuild the same job list the supervising test runs.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == WorkerFlag {
		os.Exit(ServeWorker(testWorkerJobs()))
	}
	os.Exit(m.Run())
}

// selfWorkerCommand re-execs this test binary in worker mode.
func selfWorkerCommand(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe, WorkerFlag}
}

// checkGoroutines fails the test if goroutines leaked past a small
// tolerance (mirroring chaossoak's per-iteration leak check). Supervisor
// goroutines unwind asynchronously after Run returns, so the check
// retries briefly before declaring a leak.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base+3 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d at start, %d after", base, runtime.NumGoroutine())
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// workerSimSources builds the deterministic 4-core workload used by the
// worker jobs. It must not touch *testing.T: it also runs inside worker
// processes.
func workerSimSources() []trace.Source {
	rng := sim.NewRNG(17)
	names := []string{"mcf", "astar", "gcc", "apache"}
	srcs := make([]trace.Source, len(names))
	for i, n := range names {
		p, err := trace.ProfileByName(n)
		if err != nil {
			panic(err)
		}
		s, err := trace.NewGenerator(p, rng.Fork())
		if err != nil {
			panic(err)
		}
		srcs[i] = s
	}
	return srcs
}

// runWorkerSim is the clean execution path shared by every worker job:
// build the system, arm heartbeats, run to total, and render a
// deterministic table. Byte-identity across inproc/process/crashed runs
// reduces to this function being deterministic.
func runWorkerSim(ctx context.Context, name string, total sim.Cycle) (*harness.Table, error) {
	sys, err := core.NewSystem(core.DefaultConfig(), workerSimSources())
	if err != nil {
		return nil, err
	}
	if fn := core.HeartbeatFuncFromContext(ctx); fn != nil {
		sys.SetHeartbeat(fn)
	}
	if b := obs.FromContext(ctx); b != nil {
		// Fleet telemetry: inside a worker the bundle carries the local
		// registry whose deltas ride the heartbeat frames.
		sys.EnableObs(b, name)
	}
	if err := sys.RunContext(ctx, total); err != nil {
		return nil, err
	}
	tb := &harness.Table{Title: name, Columns: []string{"metric", "value"}}
	tb.AddRow("total work", fmt.Sprint(sys.TotalWork()))
	tb.AddRow("system ipc", fmt.Sprintf("%.4f", sys.SystemIPC()))
	return tb, nil
}

// Worker-job misbehaviour is gated on InWorker() && attempt == 1 so the
// exact same Job values run clean when executed in-process (the
// byte-identity reference) and on retry attempts.

func okJob(name string) Job {
	const total = core.SuperviseStride
	return Job{
		Name: name,
		Spec: fmt.Sprintf("cycles=%d", total),
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			return runWorkerSim(ctx, name, total)
		},
	}
}

// crashJob runs the first half of its simulation and then SIGKILLs its
// own worker process — the hardest crash there is. The retry runs the
// job again from the start.
func crashJob() Job {
	const total = 4 * core.SuperviseStride
	return Job{
		Name: "w-crash",
		Spec: fmt.Sprintf("cycles=%d", total),
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if InWorker() && attempt == 1 {
				sys, err := core.NewSystem(core.DefaultConfig(), workerSimSources())
				if err != nil {
					return nil, err
				}
				if fn := core.HeartbeatFuncFromContext(ctx); fn != nil {
					sys.SetHeartbeat(fn)
				}
				if err := sys.RunContext(ctx, total/2); err != nil {
					return nil, err
				}
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: SIGKILL is not catchable
			}
			return runWorkerSim(ctx, "w-crash", total)
		},
	}
}

// stallJob stops heartbeating and ignores both its context and SIGTERM,
// forcing the supervisor through the full escalation ladder to SIGKILL.
func stallJob() Job {
	const total = core.SuperviseStride
	return Job{
		Name: "w-stall",
		Spec: fmt.Sprintf("cycles=%d", total),
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if InWorker() && attempt == 1 {
				// No heartbeats, no ctx checks: dead to the world until
				// SIGKILLed (bounded so a broken supervisor cannot hang
				// the suite forever).
				deadline := time.Now().Add(60 * time.Second)
				for time.Now().Before(deadline) {
					time.Sleep(20 * time.Millisecond)
				}
				return nil, Transient(errors.New("stall guard expired without a kill"))
			}
			return runWorkerSim(ctx, "w-stall", total)
		},
	}
}

// oomJob allocates touched memory in steps, running a stride of
// simulation between steps so heartbeats report the climbing RSS, until
// the supervisor's memory ceiling kills it.
func oomJob() Job {
	const total = core.SuperviseStride
	return Job{
		Name: "w-oom",
		Spec: fmt.Sprintf("cycles=%d", total),
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if InWorker() && attempt == 1 {
				cfg := core.DefaultConfig()
				sys, err := core.NewSystem(cfg, workerSimSources())
				if err != nil {
					return nil, err
				}
				if fn := core.HeartbeatFuncFromContext(ctx); fn != nil {
					sys.SetHeartbeat(fn)
				}
				var hold [][]byte
				for i := 0; i < 8; i++ { // 512 MiB of touched pages
					chunk := make([]byte, 64<<20)
					for p := 0; p < len(chunk); p += 4096 {
						chunk[p] = 1
					}
					hold = append(hold, chunk)
					if err := sys.RunContext(ctx, core.SuperviseStride); err != nil {
						return nil, err
					}
				}
				// Dwell with the memory held, still heartbeating the high
				// RSS, until the supervisor's ceiling check kills us.
				deadline := time.Now().Add(15 * time.Second)
				for time.Now().Before(deadline) && ctx.Err() == nil {
					if err := sys.RunContext(ctx, core.SuperviseStride); err != nil {
						return nil, err
					}
				}
				runtime.KeepAlive(hold)
				return nil, Transient(errors.New("memory ceiling never enforced"))
			}
			return runWorkerSim(ctx, "w-oom", total)
		},
	}
}

// testWorkerJobs is the job list both the supervising tests and the
// re-exec'd worker processes build — names and specs must match or the
// worker rejects the request.
func testWorkerJobs() []Job {
	return []Job{
		okJob("w-ok-a"), okJob("w-ok-b"), okJob("w-ok-c"),
		crashJob(), stallJob(), oomJob(),
	}
}

// procOpts is the shared process-isolation test configuration: fast
// backoff, test-sized supervision windows.
func procOpts(t *testing.T) Options {
	opt := fastOpts()
	opt.Isolation = IsolationProcess
	opt.WorkerCommand = selfWorkerCommand(t)
	opt.HeartbeatEvery = 25 * time.Millisecond
	// Wide enough that a legitimate worker never trips it even under the
	// race detector (a stride of simulation plus worker startup stays far
	// below 2s), narrow enough that the stall test escalates quickly.
	opt.StallTimeout = 2 * time.Second
	opt.StallGrace = 300 * time.Millisecond
	return opt
}

// tablesEqual byte-compares two result tables via their canonical JSON
// form.
func tablesEqual(a, b *harness.Table) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// TestServeAttemptAssignmentTable: the shared worker-side runner serves
// a matching assignment between start and done frames, and refuses an
// unknown name or a diverging spec hash as a fatal, distinguishable
// protocol error without running anything or emitting a frame.
func TestServeAttemptAssignmentTable(t *testing.T) {
	jobs := testWorkerJobs()
	// Outside a worker process w-crash runs clean for four strides, so
	// the attempt crosses several grid points.
	job := crashJob()
	cases := []struct {
		name    string
		a       Assignment
		wantErr error
	}{
		{"match", Assignment{Name: job.Name, Hash: job.Hash(), Attempt: 1, WantMetrics: true}, nil},
		{"unknown job", Assignment{Name: "w-missing", Hash: job.Hash(), Attempt: 1}, ErrUnknownJob},
		{"hash mismatch", Assignment{Name: job.Name, Hash: "0000000000000000", Attempt: 1}, ErrSpecMismatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var frames []HeartbeatFrame
			c.a.HeartbeatEvery = time.Millisecond
			table, lastCycle, err := ServeAttempt(context.Background(), jobs, c.a, func(f HeartbeatFrame) error {
				frames = append(frames, f)
				return nil
			})
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) || Classify(err) != ClassFatal {
					t.Fatalf("err = %v (class %v), want fatal %v", err, Classify(err), c.wantErr)
				}
				if table != nil || lastCycle != 0 || len(frames) != 0 {
					t.Fatalf("refused assignment ran: table %v, last cycle %d, %d frames", table, lastCycle, len(frames))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ref, rerr := runWorkerSim(context.Background(), job.Name, 4*core.SuperviseStride)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !tablesEqual(table, ref) {
				t.Errorf("served table differs from reference:\n%v\nvs\n%v", table, ref)
			}
			// Grid points fire at the start of each stride.
			if want := uint64(3 * core.SuperviseStride); lastCycle != want {
				t.Errorf("last cycle %d, want %d", lastCycle, want)
			}
			if len(frames) < 2 || frames[0].Kind != FrameStart || frames[len(frames)-1].Kind != FrameDone {
				t.Fatalf("frames %+v, want start ... done", frames)
			}
			if done := frames[len(frames)-1]; done.Cycle != lastCycle || done.Metrics.Empty() {
				t.Errorf("done frame at cycle %d with metrics %v, want cycle %d and a metrics delta", done.Cycle, done.Metrics, lastCycle)
			}
		})
	}
}

// TestHeartbeatCyclesOrderedAcrossSystems: a job that runs several
// systems restarts the simulated clock with each one. The writer's cycle
// continues from the previous system's last grid point instead, so the
// supervisor's metric history stays in cycle order.
func TestHeartbeatCyclesOrderedAcrossSystems(t *testing.T) {
	w := NewHeartbeatWriter(nil, 0)
	for i, c := range []struct{ beat, want uint64 }{
		{0, 0}, {100, 100}, {200, 200}, // first system
		{0, 200}, {50, 250}, // second system
		{0, 250}, {0, 250}, {10, 260}, // a system that beat only at 0, then a fourth
	} {
		w.Beat(core.Heartbeat{Cycle: c.beat})
		if got := w.LastCycle(); got != c.want {
			t.Fatalf("beat %d at cycle %d: LastCycle %d, want %d", i, c.beat, got, c.want)
		}
	}
}

// TestProcessIsolationUnknownJobFatal: a supervisor whose job list holds
// a job the worker's list lacks gets the worker's protocol refusal, and
// the job fails fatally on its first attempt instead of burning retries.
func TestProcessIsolationUnknownJobFatal(t *testing.T) {
	checkGoroutines(t)
	opt := procOpts(t)
	opt.Retries = 3
	sum, err := Run(context.Background(), []Job{okJob("w-not-in-worker")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Failed || res.Class != ClassFatal {
		t.Fatalf("status %s class %v, want Failed/ClassFatal (err: %v)", res.Status, res.Class, res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("unknown job retried: %d attempts", res.Attempts)
	}
}

// TestProcessIsolationDisturbedByteIdentical is the acceptance scenario:
// one worker SIGKILLs itself mid-job, one exceeds the RSS ceiling, one
// stalls past the heartbeat deadline. The campaign must still complete
// every job and its tables must be byte-identical to an undisturbed
// in-process run of the same specs.
func TestProcessIsolationDisturbedByteIdentical(t *testing.T) {
	checkGoroutines(t)
	jobs := []Job{okJob("w-ok-a"), crashJob(), stallJob(), oomJob()}

	// Undisturbed in-process reference (InWorker() is false here, so the
	// misbehaving paths never trigger).
	ref, err := Run(context.Background(), jobs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range ref.Results {
		if res.Status != Done {
			t.Fatalf("reference job %s ended %s: %v", res.Job.Name, res.Status, res.Err)
		}
	}

	reg := obs.NewRegistry()
	journal, err := OpenJournal(t.TempDir() + "/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	opt := procOpts(t)
	opt.Workers = 4
	opt.Retries = 2
	opt.MemLimit = 256 << 20
	opt.Journal = journal
	opt.Progress = NewProgress(reg)
	opt.Log = t.Logf

	sum, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range sum.Results {
		if res.Status != Done {
			t.Fatalf("job %s ended %s: %v", res.Job.Name, res.Status, res.Err)
		}
		if !tablesEqual(res.Table, ref.Results[i].Table) {
			t.Errorf("job %s: disturbed table differs from reference:\n%v\nvs\n%v",
				res.Job.Name, res.Table, ref.Results[i].Table)
		}
	}

	// Every disturbed job needed exactly one restart; the journal must
	// agree.
	recs := make(map[string]Record)
	for _, rec := range journal.Records() {
		recs[rec.Job] = rec
	}
	for _, name := range []string{"w-crash", "w-stall", "w-oom"} {
		rec, ok := recs[name]
		if !ok {
			t.Fatalf("no journal record for %s", name)
		}
		if rec.Status != StatusDone {
			t.Errorf("journal: %s status %s, want %s", name, rec.Status, StatusDone)
		}
		if rec.Attempts < 2 {
			t.Errorf("journal: %s recorded %d attempts, want >= 2", name, rec.Attempts)
		}
	}
	if rec := recs["w-ok-a"]; rec.Attempts != 1 {
		t.Errorf("journal: w-ok-a recorded %d attempts, want 1", rec.Attempts)
	}

	// The worker instruments must have seen each escalation. Lower
	// bounds, not exact counts: a heavily loaded host can add spurious
	// (but harmless) restarts.
	for name, want := range map[string]uint64{
		"campaign.worker.restarts":      3,
		"campaign.worker.stalls_killed": 1,
		"campaign.worker.oom_killed":    1,
	} {
		if got := reg.Counter(name).Value(); got < want {
			t.Errorf("%s = %d, want >= %d", name, got, want)
		}
	}
	if got := reg.Counter("campaign.worker.heartbeats").Value(); got == 0 {
		t.Error("no heartbeats recorded")
	}
	if got := reg.Gauge("campaign.worker.peak_rss_bytes").Value(); got <= float64(opt.MemLimit) {
		t.Errorf("peak rss gauge %v never crossed the ceiling %d", got, opt.MemLimit)
	}
}

// TestWorkerFatalExitNotRetried: a worker that dies with the fatal exit
// code and no response is never retried.
func TestWorkerFatalExitNotRetried(t *testing.T) {
	checkGoroutines(t)
	opt := fastOpts()
	opt.Isolation = IsolationProcess
	opt.WorkerCommand = []string{"/bin/sh", "-c", fmt.Sprintf("exit %d", WorkerExitFatal)}
	opt.Retries = 3
	sum, err := Run(context.Background(), []Job{trivialJob("fatal-exit")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Failed || res.Class != ClassFatal {
		t.Fatalf("status %s class %v, want Failed/ClassFatal (err: %v)", res.Status, res.Class, res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("fatal worker exit retried: %d attempts", res.Attempts)
	}
}

// TestWorkerUnknownExitRetriedAsTransient: an unrecognized exit status
// (a panic's exit 2, an OOM-killer signal) is transient and consumes the
// retry budget.
func TestWorkerUnknownExitRetriedAsTransient(t *testing.T) {
	checkGoroutines(t)
	opt := fastOpts()
	opt.Isolation = IsolationProcess
	opt.WorkerCommand = []string{"/bin/sh", "-c", "exit 2"}
	opt.Retries = 2
	sum, err := Run(context.Background(), []Job{trivialJob("panic-exit")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Failed || res.Class != ClassTransient {
		t.Fatalf("status %s class %v, want Failed/ClassTransient (err: %v)", res.Status, res.Class, res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("transient worker death got %d attempts, want 3", res.Attempts)
	}
}

// TestProcessIsolationRequiresWorkerCommand: option validation.
func TestProcessIsolationRequiresWorkerCommand(t *testing.T) {
	opt := fastOpts()
	opt.Isolation = IsolationProcess
	if _, err := Run(context.Background(), []Job{trivialJob("x")}, opt); err == nil {
		t.Fatal("process isolation without WorkerCommand accepted")
	}
	opt = fastOpts()
	opt.Isolation = "container"
	if _, err := Run(context.Background(), []Job{trivialJob("x")}, opt); err == nil {
		t.Fatal("unknown isolation mode accepted")
	}
}

// TestParseBytes: the -mem-limit flag syntax.
func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"4K", 4 << 10, false},
		{"512MiB", 512 << 20, false},
		{"512mb", 512 << 20, false},
		{"2G", 2 << 30, false},
		{"1TiB", 1 << 40, false},
		{"64B", 64, false},
		{"-1", 0, true},
		{"cheese", 0, true},
		{"12QB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}
