package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/fault"
	"camouflage/internal/harness"
	"camouflage/internal/iofault"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// fastOpts returns options with millisecond backoff so retry tests do
// not sleep for real.
func fastOpts() Options {
	return Options{Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

func trivialJob(name string) Job {
	return Job{
		Name: name,
		Spec: "spec of " + name,
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			t := &harness.Table{Title: name, Columns: []string{"k", "v"}}
			t.AddRow(name, "ok")
			return t, nil
		},
	}
}

func TestSpecHashDeterministic(t *testing.T) {
	a := Job{Name: "fig11", Spec: "cycles=400000 seed=1"}
	b := Job{Name: "fig11", Spec: "cycles=400000 seed=1"}
	c := Job{Name: "fig11", Spec: "cycles=400000 seed=2"}
	d := Job{Name: "fig12", Spec: "cycles=400000 seed=1"}
	if a.Hash() != b.Hash() {
		t.Fatalf("identical jobs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if a.Hash() == c.Hash() {
		t.Fatal("changed spec kept the same hash")
	}
	if a.Hash() == d.Hash() {
		t.Fatal("changed name kept the same hash")
	}
	if len(a.Hash()) != 16 {
		t.Fatalf("hash length %d, want 16", len(a.Hash()))
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	jobs := make([]Job, 7)
	for i := range jobs {
		jobs[i] = trivialJob(fmt.Sprintf("job%d", i))
	}
	opt := fastOpts()
	opt.Workers = 3
	sum, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(jobs) || sum.Failed != 0 || sum.Remaining != 0 {
		t.Fatalf("summary %s, want all %d completed", sum, len(jobs))
	}
	for i, res := range sum.Results {
		if res.Job.Name != jobs[i].Name {
			t.Fatalf("result %d is %q, want input order %q", i, res.Job.Name, jobs[i].Name)
		}
		if res.Status != Done || res.Table == nil || res.Attempts != 1 {
			t.Fatalf("job %s: status %s attempts %d", res.Job.Name, res.Status, res.Attempts)
		}
	}
}

func TestDuplicateSpecHashRejected(t *testing.T) {
	jobs := []Job{trivialJob("same"), trivialJob("same")}
	if _, err := Run(context.Background(), jobs, fastOpts()); err == nil {
		t.Fatal("duplicate spec hash accepted")
	}
}

// TestPanickingJobFailsOnceWithStack: a panicking job fails fatally on
// its first attempt, with its name, the panic value and the stack in
// its error, and the job after it still runs.
func TestPanickingJobFailsOnceWithStack(t *testing.T) {
	var runs atomic.Int32
	boom := Job{
		Name: "panicky",
		Spec: "panics",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			runs.Add(1)
			panic("exploding experiment")
		},
	}
	opt := fastOpts()
	opt.Retries = 2
	sum, err := Run(context.Background(), []Job{boom, trivialJob("next")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Failed || res.Class != ClassFatal {
		t.Fatalf("status %s class %v, want Failed/ClassFatal (err: %v)", res.Status, res.Class, res.Err)
	}
	if res.Attempts != 1 || runs.Load() != 1 {
		t.Fatalf("panicking job ran %d times (%d attempts), want 1", runs.Load(), res.Attempts)
	}
	for _, want := range []string{`"panicky"`, "exploding experiment", "goroutine"} {
		if !strings.Contains(res.Err.Error(), want) {
			t.Fatalf("error lacks %q: %v", want, res.Err)
		}
	}
	if next := sum.Results[1]; next.Status != Done {
		t.Fatalf("job after the panic ended %s: %v", next.Status, next.Err)
	}
}

// faultedSoloRun simulates a short solo gcc run with the given faults
// injected, returning the injector stats and the run error.
func faultedSoloRun(ctx context.Context, opt fault.Options, checks bool, cycles sim.Cycle, seed uint64) (fault.Stats, error) {
	cfg := core.DefaultConfig()
	cfg.Cores = 1
	cfg.Seed = seed
	ref := cfg.Timing
	inj := fault.NewInjector(opt, sim.NewRNG(seed+99))
	cfg.Timing = inj.PerturbTiming(cfg.Timing)
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		return fault.Stats{}, err
	}
	src, err := trace.NewGenerator(p, sim.NewRNG(seed+77))
	if err != nil {
		return fault.Stats{}, err
	}
	sys, err := core.NewSystem(cfg, []trace.Source{src})
	if err != nil {
		return fault.Stats{}, err
	}
	sys.InjectFaults(inj)
	if checks {
		sys.EnableChecks(check.Options{ReferenceTiming: &ref, FlowMaxAge: 20_000})
	}
	runErr := sys.RunContext(ctx, cycles)
	return inj.Stats(), runErr
}

// TestTransientFaultRetriedWithBackoff injects NoC drop faults (via
// internal/fault) on the first two attempts; the job observes the lost
// transactions and reports a transient failure. The runner must retry
// with backoff and succeed on the clean third attempt.
func TestTransientFaultRetriedWithBackoff(t *testing.T) {
	var runs atomic.Int32
	job := Job{
		Name: "transient",
		Spec: "drop-faults-until-attempt-3",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			runs.Add(1)
			opt := fault.Options{}
			if attempt < 3 {
				opt.DropProb = 0.05 // flaky fabric on early attempts
			}
			st, err := faultedSoloRun(ctx, opt, false, 30_000, 1)
			if err != nil {
				return nil, err
			}
			if st.Dropped > 0 {
				return nil, Transient(fmt.Errorf("lost %d transactions in flight", st.Dropped))
			}
			tbl := &harness.Table{Title: "transient", Columns: []string{"ok"}}
			tbl.AddRow("yes")
			return tbl, nil
		},
	}
	opt := fastOpts()
	opt.Retries = 3
	var logged []string
	opt.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	sum, err := Run(context.Background(), []Job{job}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Done {
		t.Fatalf("status %s (%v), want done", res.Status, res.Err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("job ran %d times, want 3 (two faulted, one clean)", got)
	}
	if res.Attempts != 3 || sum.Retried != 1 {
		t.Fatalf("attempts %d retried %d, want 3/1", res.Attempts, sum.Retried)
	}
	var sawRetry bool
	for _, line := range logged {
		if strings.Contains(line, "retrying in") {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no retry/backoff log line in %q", logged)
	}
}

// TestViolationFatalNoRetry perturbs the DRAM timing so the protocol
// checker (internal/check) fires. The violation must be classified
// fatal and recorded without a single retry.
func TestViolationFatalNoRetry(t *testing.T) {
	var runs atomic.Int32
	job := Job{
		Name: "fatal",
		Spec: "timing-fault",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			runs.Add(1)
			_, err := faultedSoloRun(ctx, fault.Options{Timing: true}, true, 100_000, 1)
			if err == nil {
				return nil, errors.New("timing fault escaped the protocol checker")
			}
			return nil, err
		},
	}
	opt := fastOpts()
	opt.Retries = 5
	jn, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = jn
	sum, err := Run(context.Background(), []Job{job}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Failed || sum.Failed != 1 {
		t.Fatalf("status %s, want failed", res.Status)
	}
	if res.Class != ClassFatal {
		t.Fatalf("class %s, want fatal", res.Class)
	}
	var v *check.Violation
	if !errors.As(res.Err, &v) {
		t.Fatalf("error does not wrap a check.Violation: %v", res.Err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("fatal job ran %d times, want exactly 1 (no retry)", got)
	}
	recs := jn.Records()
	if len(recs) != 1 || recs[0].Status != StatusFailed || recs[0].Class != "fatal" {
		t.Fatalf("journal records %+v, want one failed/fatal record", recs)
	}
}

// TestPerJobTimeoutIsTransient: a deadline on one attempt is a property
// of the host, not the configuration — it must be retried, and a later
// faster attempt must succeed.
func TestPerJobTimeoutIsTransient(t *testing.T) {
	job := Job{
		Name: "slowpoke",
		Spec: "slow-first-attempt",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			if attempt == 1 {
				<-ctx.Done() // simulate an attempt that outlives its deadline
				return nil, ctx.Err()
			}
			tbl := &harness.Table{Title: "slowpoke", Columns: []string{"ok"}}
			tbl.AddRow("yes")
			return tbl, nil
		},
	}
	opt := fastOpts()
	opt.Retries = 1
	opt.JobTimeout = 20 * time.Millisecond
	sum, err := Run(context.Background(), []Job{job}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Results[0]
	if res.Status != Done || res.Attempts != 2 {
		t.Fatalf("status %s attempts %d (%v), want done after retry", res.Status, res.Attempts, res.Err)
	}
}

// TestResumeSkipsCompleted: a second campaign over the same jobs with
// -resume must serve every result from the journal without running
// anything, and a changed spec must invalidate its record.
func TestResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var runs atomic.Int32
	mkJobs := func(spec2 string) []Job {
		counted := func(name, spec string) Job {
			j := trivialJob(name)
			j.Spec = spec
			inner := j.Run
			j.Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
				runs.Add(1)
				return inner(ctx, attempt)
			}
			return j
		}
		return []Job{counted("a", "s1"), counted("b", spec2), counted("c", "s3")}
	}

	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Journal = jn
	if _, err := Run(context.Background(), mkJobs("s2"), opt); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("first campaign ran %d jobs, want 3", got)
	}

	// Resume with identical specs: nothing re-runs, tables come back.
	jn2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := fastOpts()
	opt2.Journal = jn2
	opt2.Resume = true
	sum, err := Run(context.Background(), mkJobs("s2"), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("resume re-ran jobs: %d total executions, want 3", got)
	}
	if sum.Resumed != 3 || sum.Completed != 0 {
		t.Fatalf("summary %s, want 3 resumed", sum)
	}
	for _, res := range sum.Results {
		if res.Status != Resumed || res.Table == nil || len(res.Table.Rows) != 1 {
			t.Fatalf("job %s: status %s table %v", res.Job.Name, res.Status, res.Table)
		}
	}

	// Resume with one changed spec: only that job re-runs.
	jn3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt3 := fastOpts()
	opt3.Journal = jn3
	opt3.Resume = true
	sum, err = Run(context.Background(), mkJobs("s2-changed"), opt3)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("changed-spec resume executed %d total, want 4", got)
	}
	if sum.Resumed != 2 || sum.Completed != 1 {
		t.Fatalf("summary %s, want 2 resumed + 1 completed", sum)
	}
}

// TestGracefulDrain: cancelling the campaign context stops new jobs from
// starting, cancels in-flight jobs after the grace period, flushes the
// journal, and reports the remaining work.
func TestGracefulDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	var once atomic.Bool
	blocking := func(name string) Job {
		return Job{
			Name: name,
			Spec: "blocks until canceled",
			Run: func(jctx context.Context, attempt int) (*harness.Table, error) {
				if once.CompareAndSwap(false, true) {
					close(started)
				}
				<-jctx.Done()
				return nil, jctx.Err()
			},
		}
	}
	jobs := []Job{trivialJob("quick"), blocking("blocker"), trivialJob("never-starts")}

	jn, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Workers = 1
	opt.Journal = jn
	opt.Grace = 10 * time.Millisecond

	go func() {
		<-started
		cancel()
	}()
	sum, err := Run(ctx, jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Interrupted {
		t.Fatal("summary does not report the interruption")
	}
	if sum.Completed != 1 {
		t.Fatalf("completed %d, want 1 (the quick job before the blocker)", sum.Completed)
	}
	if sum.Remaining != 2 {
		t.Fatalf("remaining %d, want 2 (canceled blocker + never-started job); summary %s", sum.Remaining, sum)
	}
	if sum.Results[1].Status != Canceled {
		t.Fatalf("blocker status %s, want canceled", sum.Results[1].Status)
	}
	if sum.Results[2].Status != Skipped {
		t.Fatalf("unstarted job status %s, want skipped", sum.Results[2].Status)
	}
	// The completed job's record survived the drain.
	done := jn.Done()
	if len(done) != 1 {
		t.Fatalf("journal has %d done records after drain, want 1", len(done))
	}
}

func TestClassify(t *testing.T) {
	viol := &check.Violation{Checker: "credit", Err: errors.New("boom")}
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"canceled", context.Canceled, ClassCanceled},
		{"deadline-ctx", context.DeadlineExceeded, ClassCanceled},
		{"wrapped-canceled", fmt.Errorf("run: %w", context.Canceled), ClassCanceled},
		{"violation", viol, ClassFatal},
		{"wrapped-violation", fmt.Errorf("run: %w", viol), ClassFatal},
		{"explicit-fatal", Fatal(errors.New("bad config")), ClassFatal},
		{"explicit-transient", Transient(viol), ClassTransient},
		{"core-deadline", fmt.Errorf("core: %w at cycle 5", core.ErrDeadline), ClassTransient},
		{"unknown", errors.New("mystery"), ClassTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestBackoffGrowsAndIsDeterministic(t *testing.T) {
	opt := Options{Backoff: 100 * time.Millisecond, MaxBackoff: 8 * time.Second}
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 5; attempt++ {
		d := backoff(opt, "deadbeef", attempt)
		if d != backoff(opt, "deadbeef", attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		base := opt.Backoff << (attempt - 1)
		if d < base/2 || d > base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base+base/2)
		}
		if base > prevMax {
			prevMax = base
		}
	}
	if a, b := backoff(opt, "deadbeef", 1), backoff(opt, "cafef00d", 1); a == b {
		t.Error("different jobs share identical jitter (thundering herd)")
	}
}

// TestRetryBudgetExhaustion (satellite): a job whose every attempt fails
// with an injected transient I/O error exhausts Retries+1 attempts, the
// summary counts it failed, and the journal's terminal record carries
// the attempt count, the transient class, and one retry offset per
// retry.
func TestRetryBudgetExhaustion(t *testing.T) {
	var attempts atomic.Int32
	doomed := Job{
		Name: "doomed",
		Spec: "cycles=1",
		Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
			attempts.Add(1)
			return nil, Transient(fmt.Errorf("checkpoint write: %w", iofault.ErrInjected))
		},
	}
	jn, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Retries = 2
	opt.Journal = jn
	sum, err := Run(context.Background(), []Job{doomed, trivialJob("survivor")}, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("doomed ran %d attempts, want Retries+1 = 3", got)
	}
	if sum.Failed != 1 || sum.Completed != 1 || sum.Remaining != 0 {
		t.Fatalf("summary failed=%d completed=%d remaining=%d, want 1/1/0", sum.Failed, sum.Completed, sum.Remaining)
	}
	var res *Result
	for _, r := range sum.Results {
		if r.Job.Name == "doomed" {
			res = r
		}
	}
	if res.Status != Failed || res.Class != ClassTransient || res.Attempts != 3 {
		t.Fatalf("doomed result status=%v class=%v attempts=%d", res.Status, res.Class, res.Attempts)
	}
	if len(res.RetryAt) != 2 {
		t.Fatalf("doomed recorded %d retry offsets, want 2", len(res.RetryAt))
	}

	// The journal record mirrors the result, so a post-hoc reader sees
	// exactly how the budget was spent.
	var rec *Record
	for _, r := range jn.Records() {
		if r.Job == "doomed" {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no journal record for the exhausted job")
	}
	if rec.Status != StatusFailed || rec.Class != "transient" || rec.Attempts != 3 {
		t.Fatalf("journal record %+v", rec)
	}
	if len(rec.RetryAtMS) != 2 {
		t.Fatalf("journal recorded %d retry offsets, want 2", len(rec.RetryAtMS))
	}
	if !strings.Contains(rec.Error, "injected") {
		t.Fatalf("journal error %q lost the cause", rec.Error)
	}
	// A resume run does not re-serve a failed job from the journal: it
	// re-runs it.
	attempts.Store(0)
	opt.Resume = true
	sum2, err := Run(context.Background(), []Job{doomed}, opt)
	if err != nil || sum2.Failed != 1 || attempts.Load() != 3 {
		t.Fatalf("resume of failed job: err=%v failed=%d attempts=%d", err, sum2.Failed, attempts.Load())
	}
}

// TestCampaignDrainsCleanlyWithFailingJournal: every mid-run journal
// flush fails, yet the campaign completes all jobs and reports a full
// summary; the drain-time retry then recovers the journal once the
// disk heals, clearing the surfaced error.
func TestCampaignDrainsCleanlyWithFailingJournal(t *testing.T) {
	const jobs = 3
	// Exactly `jobs` renames fail: every per-job append flush breaks, the
	// drain-time Flush succeeds.
	fsys := &flakyFS{FS: iofault.OS, renameFailsLeft: jobs}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, err := OpenJournalFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	var js []Job
	for i := 0; i < jobs; i++ {
		js = append(js, trivialJob(fmt.Sprintf("job%d", i)))
	}
	opt := fastOpts()
	opt.Journal = jn
	var logs []string
	opt.Log = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	sum, err := Run(context.Background(), js, opt)
	if err != nil {
		t.Fatalf("drain-time recovery should clear the journal error, got %v", err)
	}
	if sum.Completed != jobs {
		t.Fatalf("completed %d of %d despite journal faults", sum.Completed, jobs)
	}
	if jn.Dirty() {
		t.Fatal("journal still dirty after drain recovery")
	}
	if jn.FlushFailures() != jobs {
		t.Fatalf("flush failures %d, want %d", jn.FlushFailures(), jobs)
	}
	re, err := OpenJournal(path)
	if err != nil || re.Len() != jobs {
		t.Fatalf("recovered journal holds %d records, want %d (%v)", re.Len(), jobs, err)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "journal recovered") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovery log line in %q", logs)
	}
}

// TestCampaignSurfacesUnhealedJournal: when the disk never heals, the
// campaign still completes every job and reports the journal error
// without losing the in-memory records.
func TestCampaignSurfacesUnhealedJournal(t *testing.T) {
	fsys := &flakyFS{FS: iofault.OS, renameFailsLeft: 1 << 30}
	jn, err := OpenJournalFS(fsys, filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Journal = jn
	sum, err := Run(context.Background(), []Job{trivialJob("a"), trivialJob("b")}, opt)
	if err == nil {
		t.Fatal("want the journal failure surfaced when the disk never heals")
	}
	if sum.Completed != 2 {
		t.Fatalf("completed %d of 2: journal faults must not fail jobs", sum.Completed)
	}
	if !jn.Dirty() || jn.Len() != 2 {
		t.Fatalf("dirty=%v len=%d, want buffered records intact", jn.Dirty(), jn.Len())
	}
}
