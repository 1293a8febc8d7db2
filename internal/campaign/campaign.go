package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"camouflage/internal/harness"
	"camouflage/internal/obs"
)

// Job is one unit of campaign work: a paper experiment or one point of a
// sweep. Run receives the job context (canceled on drain or per-job
// deadline) and the 1-based attempt number; it returns the rendered
// result table, or an error the runner classifies for retry.
type Job struct {
	// Name is the job's unique human-readable identity ("fig11",
	// "scalability/8").
	Name string
	// Spec is the canonical parameter string ("cycles=400000 seed=1 ...").
	// Name+Spec feed the spec hash; change a parameter and the hash
	// changes, so a resume re-runs the job instead of serving a stale
	// journal record.
	Spec string
	// Run executes the job.
	Run func(ctx context.Context, attempt int) (*harness.Table, error)
}

// Hash is the job's deterministic spec hash: the first 16 hex digits of
// sha256(Name + "\n" + Spec).
func (j Job) Hash() string {
	sum := sha256.Sum256([]byte(j.Name + "\n" + j.Spec))
	return hex.EncodeToString(sum[:8])
}

// Options configures a campaign run. The zero value is usable: one
// worker, two retries, default backoff, no journal, no per-job deadline.
type Options struct {
	// Workers bounds concurrent jobs; <=0 selects 1.
	Workers int
	// Retries is the number of re-executions after a transient failure
	// (total attempts = Retries+1); <0 selects 0.
	Retries int
	// Backoff is the first retry delay, doubled per attempt up to
	// MaxBackoff, with deterministic ±50% jitter. Zero selects 250ms/8s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JobTimeout is the per-job wall-clock deadline (0 = none). A timed-out
	// attempt is transient: the host was slow, not the configuration wrong.
	JobTimeout time.Duration
	// Grace is how long in-flight jobs may keep running after the campaign
	// context is canceled before they are hard-canceled too. Zero cancels
	// in-flight jobs immediately.
	Grace time.Duration
	// CheckpointDir, when non-empty, gives every job a private
	// checkpoint directory (<CheckpointDir>/<spec-hash>) through its
	// context — see CheckpointDir/LatestCheckpoint. A retried or resumed
	// job restores from its latest valid checkpoint instead of starting
	// the simulation over; a Done job's directory is removed.
	CheckpointDir string
	// Journal, when non-nil, records every terminal outcome and seeds
	// Resume.
	Journal *Journal
	// Resume skips jobs whose spec hash already has a StatusDone record in
	// the journal, re-emitting the recorded table.
	Resume bool
	// Seed perturbs the retry jitter (the jitter is otherwise a pure
	// function of job hash and attempt, so two campaigns of the same jobs
	// would thunder in lockstep).
	Seed uint64
	// Log, when non-nil, receives progress lines (retries, failures,
	// drain).
	Log func(format string, args ...any)
	// Progress, when non-nil, tracks live job states for the obs
	// introspection endpoint and the periodic progress line.
	Progress *Progress

	// Isolation selects where attempts execute: "" or IsolationInProc
	// runs them on the pool's own goroutines (the historical path);
	// IsolationProcess re-execs WorkerCommand per attempt and supervises
	// it with heartbeat liveness, an RSS ceiling and exit-status
	// classification — a crashing, leaking or wedged job then costs one
	// worker process, not the campaign.
	Isolation Isolation
	// WorkerCommand is the argv spawned per attempt under
	// IsolationProcess; it must reach ServeWorker with a job list built
	// identically to the supervisor's (same names and specs). Typically
	// the current binary with WorkerFlag prepended to its arguments.
	WorkerCommand []string
	// MemLimit is the per-worker RSS ceiling in bytes (0 = none). A
	// heartbeat reporting a larger RSS gets the worker SIGKILLed and the
	// attempt retried as transient, resuming from its checkpoints.
	MemLimit int64
	// HeartbeatEvery throttles worker heartbeat frames (0 selects
	// DefaultHeartbeatEvery).
	HeartbeatEvery time.Duration
	// StallTimeout declares a worker stalled when its heartbeats go
	// silent this long (0 selects DefaultStallTimeout); escalation is
	// SIGTERM (soft cancel), then SIGKILL after StallGrace.
	StallTimeout time.Duration
	// StallGrace is the SIGTERM → SIGKILL escalation window (0 selects
	// DefaultStallGrace).
	StallGrace time.Duration

	// Registry, when non-nil under IsolationProcess, receives every
	// worker's metric deltas merged under a `worker.<jobhash>.` prefix,
	// so the supervisor's /metrics shows the whole fleet.
	Registry *obs.Registry
	// History, when non-nil, additionally records merged worker gauges
	// and counters as (cycle, value) series at each heartbeat frame's
	// grid cycle, feeding /metrics/history.
	History *obs.History
	// Alerts, when non-nil, ingests worker-raised SLO alerts (metric
	// names rewritten under the worker prefix) into the supervisor's
	// monitor: counters, the /alerts ring, the alert log.
	Alerts *obs.SLOMonitor
	// SLO is the declarative rule spec forwarded to workers (see
	// obs.ParseSLOSpec); empty disables worker-side evaluation.
	SLO string

	// Dispatcher, when non-nil, overrides the isolation-selected executor
	// with an external one — typically a distributed dispatch supervisor
	// (internal/dispatch) driving remote TCP workers, which itself falls
	// back to a local Executor built via NewLocalExecutor when the fleet
	// is empty.
	Dispatcher Executor
}

// Isolation names a job execution mode.
type Isolation string

const (
	// IsolationInProc runs attempts in the supervisor's address space.
	IsolationInProc Isolation = "inproc"
	// IsolationProcess runs each attempt in a supervised worker process.
	IsolationProcess Isolation = "process"
)

// Status is a job's terminal state within one campaign run.
type Status string

const (
	// Done: the job produced a table (possibly after retries).
	Done Status = "done"
	// Resumed: the job was served from the journal without running.
	Resumed Status = "resumed"
	// Failed: the job exhausted its retries or hit a fatal error.
	Failed Status = "failed"
	// Canceled: the campaign drained while the job ran; it holds no
	// terminal record and re-runs on resume.
	Canceled Status = "canceled"
	// Skipped: the campaign drained before the job started.
	Skipped Status = "skipped"
)

// Result is one job's outcome.
type Result struct {
	Job      Job
	Hash     string
	Status   Status
	Table    *harness.Table
	Err      error
	Class    Class // meaningful when Err != nil
	Attempts int
	Elapsed  time.Duration
	// RetryAt holds the offset from job start at which each retry attempt
	// (attempt 2 onward) began.
	RetryAt []time.Duration
}

// Summary aggregates a campaign run. Results holds one entry per input
// job, in input order.
type Summary struct {
	Results []*Result
	// Completed counts Done jobs (not Resumed ones).
	Completed int
	// Resumed counts journal-served jobs.
	Resumed int
	// Retried counts jobs that needed more than one attempt.
	Retried int
	// Failed counts terminally failed jobs.
	Failed int
	// Remaining counts canceled + skipped jobs: the work a resume would
	// pick up.
	Remaining int
	// Interrupted reports whether the campaign context was canceled.
	Interrupted bool
	// TotalJobTime sums per-job wall-clock time across Done and Failed
	// jobs plus the journal-recorded durations of Resumed ones, so a
	// resumed campaign reports the compute the full result actually cost.
	TotalJobTime time.Duration
}

// String renders the partial-results summary line.
func (s *Summary) String() string {
	return fmt.Sprintf("completed %d, resumed %d, retried %d, failed %d, remaining %d, total job time %s",
		s.Completed, s.Resumed, s.Retried, s.Failed, s.Remaining,
		s.TotalJobTime.Round(time.Millisecond))
}

// Run executes jobs on a bounded worker pool and blocks until every job
// reaches a terminal state or the drain completes. Cancelling ctx stops
// the pool from starting new jobs; in-flight jobs get Options.Grace to
// finish before their contexts are canceled too. Run returns a non-nil
// Summary even when interrupted; the error reports duplicate job hashes
// or a journal that could not be written.
func Run(ctx context.Context, jobs []Job, opt Options) (*Summary, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 250 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 8 * time.Second
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	exec, err := newExecutor(opt)
	if err != nil {
		return nil, err
	}

	seen := make(map[string]string, len(jobs))
	results := make([]*Result, len(jobs))
	for i, job := range jobs {
		h := job.Hash()
		if prev, dup := seen[h]; dup {
			return nil, fmt.Errorf("campaign: jobs %q and %q share spec hash %s", prev, job.Name, h)
		}
		seen[h] = job.Name
		results[i] = &Result{Job: job, Hash: h, Status: Skipped}
		opt.Progress.add(job.Name, h, StateQueued)
	}

	// Resume pass: serve completed jobs from the journal.
	var done map[string]Record
	if opt.Journal != nil && opt.Resume {
		done = opt.Journal.Done()
	}
	var pending []*Result
	for _, res := range results {
		if rec, ok := done[res.Hash]; ok {
			res.Status = Resumed
			res.Table = rec.Table
			res.Attempts = rec.Attempts
			res.Elapsed = time.Duration(rec.ElapsedMS) * time.Millisecond
			opt.Progress.set(res.Hash, StateResumed, rec.Attempts, nil)
			continue
		}
		pending = append(pending, res)
	}

	// The grace context governs in-flight jobs: it is the campaign context
	// until that cancels, then survives Options.Grace longer so a job near
	// its end can still land its result in the journal. It keeps ctx's
	// values (the observability bundle travels that way) but not its
	// cancellation.
	graceCtx, graceCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer graceCancel()
	go func() {
		select {
		case <-ctx.Done():
			if opt.Grace > 0 {
				t := time.NewTimer(opt.Grace)
				defer t.Stop()
				select {
				case <-t.C:
				case <-graceCtx.Done():
				}
			}
			graceCancel()
		case <-graceCtx.Done():
		}
	}()

	queue := make(chan *Result)
	var wg sync.WaitGroup
	var journalMu sync.Mutex
	var journalErr error
	record := func(rec Record) {
		if opt.Journal == nil {
			return
		}
		journalMu.Lock()
		defer journalMu.Unlock()
		if err := opt.Journal.Append(rec); err != nil && journalErr == nil {
			journalErr = err
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range queue {
				runJob(ctx, graceCtx, res, opt, exec, logf)
				switch res.Status {
				case Done:
					record(Record{Job: res.Job.Name, Hash: res.Hash, Status: StatusDone,
						Attempts: res.Attempts, Table: res.Table,
						ElapsedMS: res.Elapsed.Milliseconds(), RetryAtMS: retryOffsetsMS(res)})
				case Failed:
					record(Record{Job: res.Job.Name, Hash: res.Hash, Status: StatusFailed,
						Attempts: res.Attempts, Class: res.Class.String(), Error: res.Err.Error(),
						ElapsedMS: res.Elapsed.Milliseconds(), RetryAtMS: retryOffsetsMS(res)})
				}
			}
		}()
	}

feed:
	for _, res := range pending {
		select {
		case queue <- res:
		case <-ctx.Done():
			// Drain: stop handing out work; jobs not yet started stay
			// Skipped and are picked up by the next -resume.
			break feed
		}
	}
	close(queue)
	wg.Wait()

	// Degraded-journal recovery: flush failures during the run buffered
	// records in memory instead of losing them. One more attempt at drain
	// leaves a complete journal when the disk has healed — and clears the
	// surfaced error, because nothing was actually lost. A journal that is
	// already clean here healed mid-run (a later Append flushed every
	// buffered record), so its earlier failures are equally moot.
	if opt.Journal != nil && journalErr != nil {
		journalMu.Lock()
		err := opt.Journal.Flush()
		if err == nil {
			logf("campaign: journal recovered after %d flush failure(s)", opt.Journal.FlushFailures())
			journalErr = nil
		} else {
			logf("campaign: journal still failing at drain (%d failure(s)): %v", opt.Journal.FlushFailures(), err)
		}
		journalMu.Unlock()
	}

	sum := &Summary{Results: results, Interrupted: ctx.Err() != nil}
	for _, res := range results {
		switch res.Status {
		case Done:
			sum.Completed++
			sum.TotalJobTime += res.Elapsed
			if res.Attempts > 1 {
				sum.Retried++
			}
		case Resumed:
			sum.Resumed++
			sum.TotalJobTime += res.Elapsed
		case Failed:
			sum.Failed++
			sum.TotalJobTime += res.Elapsed
		case Canceled, Skipped:
			sum.Remaining++
		}
	}
	if sum.Interrupted {
		logf("campaign: interrupted; %s", sum)
	}
	return sum, journalErr
}

// Executor runs one job attempt; the in-process executor calls the job
// function directly, the process executor re-execs a supervised worker,
// and a distributed dispatcher (Options.Dispatcher) leases attempts to
// remote workers. Execute must honor ctx cancellation and return an
// error whose Classify class drives the retry loop.
type Executor interface {
	Execute(ctx context.Context, job Job, attempt int) (*harness.Table, error)
}

// inprocExecutor is the historical path: the attempt runs on the worker
// pool goroutine itself.
type inprocExecutor struct{}

func (inprocExecutor) Execute(ctx context.Context, job Job, attempt int) (*harness.Table, error) {
	return runAttempt(ctx, job, attempt)
}

// newExecutor validates the isolation options and builds the attempt
// executor.
func newExecutor(opt Options) (Executor, error) {
	if opt.Dispatcher != nil {
		return opt.Dispatcher, nil
	}
	switch opt.Isolation {
	case "", IsolationInProc:
		return inprocExecutor{}, nil
	case IsolationProcess:
		if len(opt.WorkerCommand) == 0 {
			return nil, fmt.Errorf("campaign: Isolation=%q requires WorkerCommand", IsolationProcess)
		}
		return newProcExecutor(opt), nil
	default:
		return nil, fmt.Errorf("campaign: unknown isolation mode %q", opt.Isolation)
	}
}

// NewLocalExecutor builds the local (non-dispatched) executor the given
// options describe: in-process for ""/IsolationInProc, a supervised
// worker process for IsolationProcess. A distributed dispatcher uses
// this as its degraded-mode fallback when no remote workers are
// reachable. opt.Dispatcher is ignored. No local executor logs, so the
// log function is unused.
func NewLocalExecutor(opt Options, _ func(string, ...any)) (Executor, error) {
	opt.Dispatcher = nil
	return newExecutor(opt)
}

// runJob drives one job through its attempt/backoff loop and fills res.
func runJob(ctx, graceCtx context.Context, res *Result, opt Options, exec Executor, logf func(string, ...any)) {
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		opt.Progress.set(res.Hash, StateRunning, attempt, nil)
		jobCtx := graceCtx
		var cancel context.CancelFunc
		if opt.JobTimeout > 0 {
			jobCtx, cancel = context.WithTimeout(graceCtx, opt.JobTimeout)
		}
		if opt.CheckpointDir != "" {
			jobCtx = WithCheckpointDir(jobCtx, jobCheckpointDir(opt.CheckpointDir, res.Hash))
		}
		table, err := exec.Execute(jobCtx, res.Job, attempt)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res.Status = Done
			res.Table = table
			res.Err = nil
			opt.Progress.set(res.Hash, StateDone, attempt, nil)
			clearCheckpoints(opt.CheckpointDir, res.Hash)
			return
		}
		// A job may return a table alongside its error (a measured result
		// that failed its expectation); keep it for reporting.
		res.Table = table
		res.Err = err
		res.Class = Classify(err)
		if res.Class == ClassCanceled && graceCtx.Err() == nil {
			// The cancellation came from the per-job deadline, not the
			// drain: the host was slow. Retry it like any transient fault.
			res.Class = ClassTransient
		}
		switch res.Class {
		case ClassCanceled:
			res.Status = Canceled
			opt.Progress.set(res.Hash, StateCancel, attempt, err)
			logf("campaign: %s canceled after %d attempt(s)", res.Job.Name, attempt)
			return
		case ClassFatal:
			res.Status = Failed
			opt.Progress.set(res.Hash, StateFailed, attempt, err)
			logf("campaign: %s failed fatally (no retry): %v", res.Job.Name, err)
			return
		}
		if attempt > opt.Retries {
			res.Status = Failed
			opt.Progress.set(res.Hash, StateFailed, attempt, err)
			logf("campaign: %s failed after %d attempt(s): %v", res.Job.Name, attempt, err)
			return
		}
		delay := backoff(opt, res.Hash, attempt)
		opt.Progress.set(res.Hash, StateBackoff, attempt, err)
		opt.Progress.addBackoff(delay)
		logf("campaign: %s attempt %d failed (transient): %v; retrying in %v",
			res.Job.Name, attempt, err, delay)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
			res.RetryAt = append(res.RetryAt, time.Since(start))
		case <-ctx.Done():
			// Drain arrived while backing off: do not start another
			// attempt, let resume re-run the job.
			t.Stop()
			res.Status = Canceled
			opt.Progress.set(res.Hash, StateCancel, attempt, err)
			return
		}
	}
}

// retryOffsetsMS renders a result's retry offsets for the journal.
func retryOffsetsMS(res *Result) []int64 {
	if len(res.RetryAt) == 0 {
		return nil
	}
	out := make([]int64, len(res.RetryAt))
	for i, d := range res.RetryAt {
		out[i] = d.Milliseconds()
	}
	return out
}

// runAttempt runs the job once, converting a panic into a fatal error so
// one broken experiment cannot take down the whole campaign.
func runAttempt(ctx context.Context, job Job, attempt int) (table *harness.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			table, err = nil, Fatal(fmt.Errorf("job %q panicked: %v", job.Name, r))
		}
	}()
	return job.Run(ctx, attempt)
}

// backoff computes the delay before retrying `attempt` (1-based).
func backoff(opt Options, hash string, attempt int) time.Duration {
	return BackoffDelay(opt.Backoff, opt.MaxBackoff, opt.Seed, hash, attempt)
}

// BackoffDelay computes the delay before retrying `attempt` (1-based):
// base·2^(attempt-1) capped at max, jittered to 50–150% by a pure
// function of (seed, key, attempt) so tests are reproducible and
// concurrent retries de-synchronize. Exported for remote workers
// (internal/dispatch), whose reconnect loop uses the same deterministic
// schedule with the worker ID as key.
func BackoffDelay(base, max time.Duration, seed uint64, key string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	// Clamp the exponential explicitly: base<<shift overflows int64
	// around attempt 63 (and shifts ≥64 are undefined for the value
	// range), so instead of shifting and testing the wrapped result,
	// shift max down — base ≤ max>>shift implies base<<shift ≤ max with
	// no possibility of overflow.
	d := max
	if shift := uint(attempt - 1); shift < 63 && base <= max>>shift {
		d = base << shift
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, key, attempt)
	frac := float64(h.Sum64()%1000) / 1000.0 // [0,1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// SortJobs orders jobs by name for deterministic queueing (callers that
// build jobs from a map).
func SortJobs(jobs []Job) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
}

// JobsHash is the fleet identity of a job list: the first 16 hex digits
// of a SHA-256 over the sorted (name, spec-hash) pairs. A dispatch
// supervisor and its remote workers exchange this during the handshake —
// two processes agree on it exactly when they would resolve every job
// name to the same spec, which is the precondition for handing attempts
// across the wire by name.
func JobsHash(jobs []Job) string {
	entries := make([]string, len(jobs))
	for i, j := range jobs {
		entries[i] = j.Name + "\t" + j.Hash()
	}
	sort.Strings(entries)
	h := sha256.New()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
