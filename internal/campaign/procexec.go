package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
)

// Supervision defaults for process-isolated workers.
const (
	// DefaultHeartbeatEvery throttles worker grid heartbeats.
	DefaultHeartbeatEvery = 500 * time.Millisecond
	// DefaultStallTimeout is how long heartbeats may be silent before the
	// worker is declared stalled and escalation begins.
	DefaultStallTimeout = 30 * time.Second
	// DefaultStallGrace is the soft-cancel (SIGTERM) → SIGKILL window.
	DefaultStallGrace = 2 * time.Second
)

// ProcSpec describes one supervised worker process.
type ProcSpec struct {
	// Command is the argv to execute.
	Command []string
	// Env is the child environment (nil inherits the parent's).
	Env []string
	// Stdin, when non-nil, is fed to the child's stdin.
	Stdin []byte
	// Stdout and Stderr receive the child's output (nil discards).
	Stdout, Stderr *os.File
	// StdoutBuf, when non-nil, captures stdout into a buffer instead of
	// Stdout (the worker response travels this way).
	StdoutBuf *bytes.Buffer
	// StallTimeout is the heartbeat-silence threshold before escalation
	// (<=0 selects DefaultStallTimeout).
	StallTimeout time.Duration
	// StallGrace is the SIGTERM → SIGKILL window (<=0 selects
	// DefaultStallGrace).
	StallGrace time.Duration
	// MemLimit, when >0, SIGKILLs the child as soon as a heartbeat
	// reports an RSS above it.
	MemLimit int64
	// Beat, when non-nil, observes every heartbeat frame as it arrives.
	Beat func(HeartbeatFrame)
}

// ProcResult is the outcome of one supervised process run.
type ProcResult struct {
	// ExitCode is the child's exit status; -1 when it died to a signal.
	ExitCode int
	// Signal names the killing signal ("killed", "terminated"), empty on
	// a normal exit.
	Signal string
	// StallKilled / OOMKilled report supervisor-initiated escalations:
	// heartbeats went silent past StallTimeout, or a heartbeat breached
	// MemLimit.
	StallKilled bool
	OOMKilled   bool
	// SoftCanceled reports that the context canceled and the supervisor
	// sent SIGTERM (SIGKILL after StallGrace if ignored).
	SoftCanceled bool
	// PeakRSS is the largest heartbeat-reported RSS in bytes.
	PeakRSS int64
	// Heartbeats counts frames received; LastCycle is the newest
	// grid-point cycle reported.
	Heartbeats uint64
	LastCycle  uint64
	// Err reports a supervisor-side failure (spawn, pipe); child
	// failures are encoded in ExitCode/Signal instead.
	Err error
}

// RunProc starts Command and supervises it until exit: framed heartbeats
// are read from the child's inherited fd 3 and drive a liveness monitor
// (silence past StallTimeout → SIGTERM → SIGKILL after StallGrace), an
// RSS ceiling (a heartbeat above MemLimit → immediate SIGKILL; a
// runaway allocator cannot be trusted to shut down politely), and a
// cancellation ladder (ctx canceled → SIGTERM → SIGKILL after
// StallGrace). It blocks until the child has exited and the heartbeat
// pipe has drained.
func RunProc(ctx context.Context, spec ProcSpec) ProcResult {
	var res ProcResult
	if len(spec.Command) == 0 {
		res.Err = errors.New("campaign: empty worker command")
		return res
	}
	stallTimeout := spec.StallTimeout
	if stallTimeout <= 0 {
		stallTimeout = DefaultStallTimeout
	}
	grace := spec.StallGrace
	if grace <= 0 {
		grace = DefaultStallGrace
	}

	cmd := exec.Command(spec.Command[0], spec.Command[1:]...)
	cmd.Env = spec.Env
	if spec.Stdin != nil {
		cmd.Stdin = bytes.NewReader(spec.Stdin)
	}
	if spec.StdoutBuf != nil {
		cmd.Stdout = spec.StdoutBuf
	} else if spec.Stdout != nil {
		cmd.Stdout = spec.Stdout
	}
	if spec.Stderr != nil {
		cmd.Stderr = spec.Stderr
	}
	hbR, hbW, err := os.Pipe()
	if err != nil {
		res.Err = fmt.Errorf("campaign: heartbeat pipe: %w", err)
		return res
	}
	cmd.ExtraFiles = []*os.File{hbW} // becomes fd 3 in the child
	if err := cmd.Start(); err != nil {
		hbR.Close()
		hbW.Close()
		res.Err = fmt.Errorf("campaign: starting worker: %w", err)
		return res
	}
	hbW.Close() // child holds the write end; EOF when it exits

	// Liveness state shared with the frame reader. The spawn itself
	// counts as the first sign of life so a worker that dies before its
	// start frame is classified by exit status, not as a stall.
	var mu sync.Mutex
	lastBeat := time.Now()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			f, err := readFrame(hbR)
			if err != nil {
				return
			}
			mu.Lock()
			lastBeat = time.Now()
			res.Heartbeats++
			if f.Cycle > res.LastCycle {
				res.LastCycle = f.Cycle
			}
			if f.RSS > res.PeakRSS {
				res.PeakRSS = f.RSS
			}
			mu.Unlock()
			if spec.Beat != nil {
				spec.Beat(f)
			}
		}
	}()

	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()

	// Poll fast enough to keep escalation latency well under the
	// configured windows even when they are test-sized.
	poll := stallTimeout / 8
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()

	var waitErr error
	var termSent bool
	var killAt time.Time
	ctxDone := ctx.Done()
loop:
	for {
		select {
		case waitErr = <-waitCh:
			break loop
		case <-ctxDone:
			ctxDone = nil
			res.SoftCanceled = true
			if !termSent {
				termSent = true
				cmd.Process.Signal(syscall.SIGTERM)
				killAt = time.Now().Add(grace)
			}
		case <-ticker.C:
			mu.Lock()
			silent := time.Since(lastBeat)
			rss := res.PeakRSS
			mu.Unlock()
			if spec.MemLimit > 0 && rss > spec.MemLimit && !res.OOMKilled {
				res.OOMKilled = true
				cmd.Process.Kill()
			}
			if silent > stallTimeout && !res.StallKilled {
				res.StallKilled = true
				if !termSent {
					termSent = true
					cmd.Process.Signal(syscall.SIGTERM)
					killAt = time.Now().Add(grace)
				}
			}
			if !killAt.IsZero() && time.Now().After(killAt) {
				killAt = time.Time{}
				cmd.Process.Kill()
			}
		}
	}
	// The child's exit closed its write end, so the reader drains the
	// frames still buffered (the done frame carries the final metrics
	// delta) and then hits EOF. Closing the read end first would drop
	// them; it is only the fallback for a child that leaked its write end
	// to a grandchild, which keeps the pipe open.
	select {
	case <-readerDone:
	case <-time.After(grace):
		hbR.Close()
		<-readerDone
	}
	hbR.Close()

	if waitErr == nil {
		res.ExitCode = 0
		return res
	}
	var ee *exec.ExitError
	if errors.As(waitErr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			res.ExitCode = -1
			res.Signal = ws.Signal().String()
		} else {
			res.ExitCode = ee.ExitCode()
		}
		return res
	}
	res.Err = waitErr
	return res
}

// procExecutor runs each attempt in a supervised worker process.
type procExecutor struct {
	opt Options
	wm  workerMetrics

	mu   sync.Mutex
	peak int64
}

func newProcExecutor(opt Options) *procExecutor {
	return &procExecutor{opt: opt, wm: opt.Progress.workerMetrics()}
}

// notePeak tracks the campaign-wide peak worker RSS gauge.
func (e *procExecutor) notePeak(rss int64) {
	e.mu.Lock()
	if rss > e.peak {
		e.peak = rss
		e.wm.peakRSS.Set(float64(rss))
	}
	e.mu.Unlock()
}

func (e *procExecutor) Execute(ctx context.Context, job Job, attempt int) (*harness.Table, error) {
	dir, _ := CheckpointDir(ctx)
	hbEvery := e.opt.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatEvery
	}
	stallTimeout := e.opt.StallTimeout
	if stallTimeout <= 0 {
		stallTimeout = DefaultStallTimeout
	}
	wantMetrics := e.opt.Registry != nil
	req, err := json.Marshal(workerRequest{
		Name:             job.Name,
		Hash:             job.Hash(),
		Attempt:          attempt,
		CheckpointDir:    dir,
		HeartbeatEveryMS: hbEvery.Milliseconds(),
		MemLimit:         e.opt.MemLimit,
		WantMetrics:      wantMetrics,
		SLO:              e.opt.SLO,
	})
	if err != nil {
		return nil, Fatal(fmt.Errorf("campaign: marshaling worker request for %s: %w", job.Name, err))
	}
	// One merger per attempt: the worker prefix interns instrument
	// handles, and construction zeroes the prefix so a restarted
	// attempt's fresh-process deltas do not double-count its
	// predecessor's.
	var merger *obs.Merger
	if wantMetrics {
		merger = obs.NewMerger(e.opt.Registry, "worker."+job.Hash()+".")
		merger.SetHistory(e.opt.History)
	}
	var stdout bytes.Buffer
	pr := RunProc(ctx, ProcSpec{
		Command:      e.opt.WorkerCommand,
		Stdin:        req,
		StdoutBuf:    &stdout,
		Stderr:       os.Stderr,
		StallTimeout: stallTimeout,
		StallGrace:   e.opt.StallGrace,
		MemLimit:     e.opt.MemLimit,
		Beat: func(f HeartbeatFrame) {
			e.wm.heartbeats.Inc()
			e.notePeak(f.RSS)
			if merger != nil {
				merger.Apply(f.Metrics, sim.Cycle(f.Cycle))
				if len(f.Alerts) > 0 {
					e.opt.Alerts.Ingest(merger.Prefix(), f.Alerts)
				}
			}
		},
	})
	if pr.Err != nil {
		return nil, Transient(fmt.Errorf("campaign: worker for %s: %w", job.Name, pr.Err))
	}
	e.notePeak(pr.PeakRSS)

	// Supervisor-initiated kills take precedence over whatever partial
	// state the child left behind.
	if pr.OOMKilled {
		e.wm.oomKilled.Inc()
		e.wm.restarts.Inc()
		return nil, Transient(fmt.Errorf("campaign: worker for %s exceeded the memory ceiling (peak rss %d > limit %d bytes)",
			job.Name, pr.PeakRSS, e.opt.MemLimit))
	}
	if pr.StallKilled {
		e.wm.stallsKilled.Inc()
		e.wm.restarts.Inc()
		return nil, Transient(fmt.Errorf("campaign: worker for %s stalled (no heartbeat in %v, last cycle %d)",
			job.Name, stallTimeout, pr.LastCycle))
	}
	if cerr := ctx.Err(); cerr != nil {
		// Drain or per-job deadline: surface the context error so the
		// retry loop applies its usual canceled-vs-transient logic.
		return nil, fmt.Errorf("campaign: worker for %s canceled: %w", job.Name, cerr)
	}

	var resp workerResponse
	if jerr := json.Unmarshal(stdout.Bytes(), &resp); jerr == nil && (resp.Table != nil || resp.Error != "") {
		if resp.Error != "" {
			return resp.Table, reclassify(resp.Class, errors.New(resp.Error))
		}
		if pr.ExitCode == 0 {
			return resp.Table, nil
		}
		// A table alongside a non-zero exit means the worker died after
		// reporting; distrust the result and retry.
	}

	// No usable response: classify from how the process died.
	e.wm.restarts.Inc()
	if pr.Signal != "" {
		return nil, Transient(fmt.Errorf("campaign: worker for %s killed by signal (%s) before reporting", job.Name, pr.Signal))
	}
	switch pr.ExitCode {
	case WorkerExitFatal, WorkerExitProtocol:
		return nil, Fatal(fmt.Errorf("campaign: worker for %s exited %d (fatal) without a response", job.Name, pr.ExitCode))
	default:
		return nil, Transient(fmt.Errorf("campaign: worker for %s exited %d without a response", job.Name, pr.ExitCode))
	}
}

// reclassify rebuilds a classified error from its wire form. A worker
// that reports "canceled" when the supervisor's context is still live
// was canceled by something local (an operator's stray SIGTERM); the
// attempt is retried like any transient fault.
func reclassify(class string, err error) error {
	switch class {
	case ClassFatal.String():
		return Fatal(err)
	default:
		return Transient(err)
	}
}
