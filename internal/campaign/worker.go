package campaign

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
)

// Worker protocol
//
// Under Options.Isolation == IsolationProcess every job attempt re-execs
// the current binary with WorkerFlag as its first argument. The worker
// process:
//
//   - reads one workerRequest as JSON from stdin,
//   - resolves the job by name in its own (identically built) job list
//     and verifies the spec hash,
//   - runs the attempt with the checkpoint directory and a heartbeat
//     sink threaded through the context,
//   - streams framed heartbeats on inherited fd 3 — one "start" frame,
//     throttled "grid" frames from each supervision-grid boundary of the
//     simulation, one "done" frame,
//   - writes one workerResponse as JSON to stdout and exits with a code
//     that encodes the retry class.
//
// Heartbeats are deliberately grid-driven, not a free-running wall-clock
// ticker: a simulation wedged inside one stride stops heartbeating, which
// is exactly the stall signal the supervisor's liveness monitor needs.

// WorkerFlag is the hidden argv[1] sentinel that switches a binary into
// worker mode. Binaries that run process-isolated campaigns check
// os.Args[1] against it before flag parsing and call ServeWorker.
const WorkerFlag = "-campaign-worker"

// Worker exit codes. Zero means the attempt produced a table; the others
// encode the retry class for supervisors that lost the stdout response
// (the response, when present, is authoritative). Any other exit status —
// a panic's exit 2, a signal death, an OOM kill — is classified
// transient.
const (
	WorkerExitTransient = 10
	WorkerExitFatal     = 11
	WorkerExitCanceled  = 12
	// WorkerExitProtocol marks a request the worker could not serve at
	// all (malformed JSON, unknown job, spec-hash mismatch): fatal, since
	// a retry would resend the same request.
	WorkerExitProtocol = 13
)

// workerRequest is the job assignment read from stdin.
type workerRequest struct {
	Name             string `json:"name"`
	Hash             string `json:"hash"`
	Attempt          int    `json:"attempt"`
	CheckpointDir    string `json:"checkpoint_dir,omitempty"`
	HeartbeatEveryMS int64  `json:"heartbeat_every_ms,omitempty"`
	MemLimit         int64  `json:"mem_limit,omitempty"`
	// WantMetrics asks the worker to instrument its attempt with a local
	// registry and piggyback metric deltas (and SLO alerts, when SLO is
	// set) on its heartbeat frames.
	WantMetrics bool   `json:"want_metrics,omitempty"`
	SLO         string `json:"slo,omitempty"`
}

// workerResponse is the attempt outcome written to stdout. Error and
// Class travel as strings (the concrete error type does not survive the
// process boundary, but the retry class does).
type workerResponse struct {
	Table *harness.Table `json:"table,omitempty"`
	Error string         `json:"error,omitempty"`
	Class string         `json:"class,omitempty"`
}

// HeartbeatFrame is one liveness sample on the worker's heartbeat pipe.
type HeartbeatFrame struct {
	// Kind is "start" (sent once before the attempt), "grid" (from a
	// supervision-grid boundary) or "done" (sent once after).
	Kind string `json:"kind"`
	// Cycle is the simulated cycle of the most recent grid point,
	// counted on from the previous system's last grid point when a job
	// runs several systems one after another, so it never decreases
	// within an attempt.
	Cycle uint64 `json:"cycle"`
	// RSS is the worker's resident set size in bytes at emission.
	RSS int64 `json:"rss"`
	// CkptDegraded / CkptSaveFails mirror the simulation's checkpoint
	// health at the grid point.
	CkptDegraded  bool   `json:"ckpt_degraded,omitempty"`
	CkptSaveFails uint64 `json:"ckpt_fails,omitempty"`
	// Metrics carries the worker's instrument changes since the previous
	// emitted frame (see obs.DeltaTracker); Alerts carries SLO
	// transitions raised since then. Both are piggybacked — a frame
	// without telemetry is still a liveness sample.
	Metrics *obs.MetricsDelta `json:"metrics,omitempty"`
	Alerts  []obs.Alert       `json:"alerts,omitempty"`
}

// Heartbeat frame kinds.
const (
	FrameStart = "start"
	FrameGrid  = "grid"
	FrameDone  = "done"
)

// MaxFrameLen bounds one frame so a corrupt length prefix cannot make
// the receiver allocate unboundedly. Sized for metric-delta payloads
// from 512-core systems (thousands of instruments), not just the bare
// liveness fields.
const MaxFrameLen = 1 << 22

// Frame-decode error taxonomy. A reader must distinguish three shapes of
// trouble, because each demands a different response:
//
//   - a clean io.EOF *between* frames is the peer exiting — normal;
//   - ErrTornFrame (the stream ended mid-header or mid-payload) is a
//     torn frame: the peer died mid-write, which is transient and
//     retryable;
//   - ErrFrameTooLarge (a length prefix of zero or beyond MaxFrameLen)
//     is a protocol violation or corruption and is fatal: retrying
//     replays the same bytes and fails identically.
var (
	// ErrTornFrame marks a frame truncated mid-read: transient.
	ErrTornFrame = errors.New("campaign: torn frame (stream ended mid-frame)")
	// ErrFrameTooLarge marks a length prefix outside (0, MaxFrameLen]:
	// fatal, never retried.
	ErrFrameTooLarge = errors.New("campaign: frame length out of range")
)

// WriteFrameJSON writes v as one length-prefixed JSON frame (4-byte
// big-endian payload length, then the payload) in a single Write so
// frames never interleave on a shared pipe or connection.
func WriteFrameJSON(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), MaxFrameLen)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one length-prefixed heartbeat frame, distinguishing a
// clean EOF between frames (io.EOF), a torn frame mid-read
// (ErrTornFrame), and an out-of-range length prefix (ErrFrameTooLarge).
// Match the latter two with errors.Is.
func readFrame(r io.Reader) (HeartbeatFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return HeartbeatFrame{}, io.EOF // clean: the peer closed between frames
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return HeartbeatFrame{}, fmt.Errorf("%w: header truncated: %v", ErrTornFrame, err)
		}
		return HeartbeatFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameLen {
		return HeartbeatFrame{}, fmt.Errorf("%w: length %d, want 1..%d", ErrFrameTooLarge, n, MaxFrameLen)
	}
	payload := make([]byte, n)
	if got, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return HeartbeatFrame{}, fmt.Errorf("%w: %d of %d payload bytes: %v", ErrTornFrame, got, n, err)
		}
		return HeartbeatFrame{}, err
	}
	var f HeartbeatFrame
	if err := json.Unmarshal(payload, &f); err != nil {
		return HeartbeatFrame{}, fmt.Errorf("campaign: bad frame payload: %w", err)
	}
	return f, nil
}

// HeartbeatWriter emits heartbeat frames into a sink, typically the
// length-prefixed fd-3 pipe of a process-isolated worker. Beat is shaped
// to plug straight into core.WithHeartbeatFunc; grid frames are
// throttled to the configured interval so a fast simulation does not
// flood the sink. All methods are safe for concurrent use and degrade
// to no-ops once the sink fails (the supervisor died; the worker
// finishes on its own).
type HeartbeatWriter struct {
	mu        sync.Mutex
	sink      func(HeartbeatFrame) error
	every     time.Duration
	last      time.Time
	lastCycle uint64
	clock     obs.Timeline
	broken    bool
	// tracker / monitor, when set, piggyback metric deltas and SLO
	// alerts on every emitted frame. Deltas are computed only at emission
	// (not per Beat), so throttled-away grid points lose no increments.
	tracker *obs.DeltaTracker
	monitor *obs.SLOMonitor
}

// SetTelemetry attaches the metric delta tracker and alert monitor
// whose output rides subsequent frames. Either may be nil.
func (w *HeartbeatWriter) SetTelemetry(tracker *obs.DeltaTracker, monitor *obs.SLOMonitor) {
	w.mu.Lock()
	w.tracker = tracker
	w.monitor = monitor
	w.mu.Unlock()
}

// NewHeartbeatWriter hands frames to sink (nil for a no-op writer); every
// <= 0 selects DefaultHeartbeatEvery. The first error sink returns stops
// all further emission. sink runs under the writer's lock, so frames
// reach it in emission order; it must not call back into the writer.
func NewHeartbeatWriter(sink func(HeartbeatFrame) error, every time.Duration) *HeartbeatWriter {
	if every <= 0 {
		every = DefaultHeartbeatEvery
	}
	return &HeartbeatWriter{sink: sink, every: every}
}

// Beat records a supervision-grid heartbeat, emitting a frame if the
// throttle interval has elapsed. Frame cycles run on an obs.Timeline: a
// job that runs several systems restarts the clock at cycle 0 for each,
// and the frame cycle continues from the previous system's instead, so
// the supervisor's metric history stays in cycle order.
func (w *HeartbeatWriter) Beat(hb core.Heartbeat) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastCycle = uint64(w.clock.At(sim.Cycle(hb.Cycle)))
	if w.sink == nil || w.broken || time.Since(w.last) < w.every {
		return
	}
	w.last = time.Now()
	w.writeLocked(HeartbeatFrame{
		Kind:          FrameGrid,
		Cycle:         w.lastCycle,
		RSS:           readRSS(),
		CkptDegraded:  hb.CheckpointDegraded,
		CkptSaveFails: hb.CheckpointSaveFailures,
	})
}

// Emit writes an unthrottled frame (the start/done markers).
func (w *HeartbeatWriter) Emit(kind string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sink == nil || w.broken {
		return
	}
	w.last = time.Now()
	w.writeLocked(HeartbeatFrame{Kind: kind, Cycle: w.lastCycle, RSS: readRSS()})
}

// LastCycle returns the cycle of the most recent Beat, emitted or not.
func (w *HeartbeatWriter) LastCycle() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastCycle
}

func (w *HeartbeatWriter) writeLocked(f HeartbeatFrame) {
	// Telemetry is attached per emitted frame: the delta baseline only
	// advances here, and the done frame flushes whatever the throttle
	// held back, so the supervisor always sees the complete attempt.
	f.Metrics = w.tracker.Delta()
	f.Alerts = w.monitor.Drain()
	if err := w.sink(f); err != nil {
		w.broken = true
	}
}

// readRSS returns the process's resident set size in bytes, from
// /proc/self/statm where available and the Go runtime's own accounting
// otherwise.
func readRSS() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapSys + ms.StackSys)
}

// ParseBytes parses a human-readable byte size for the -mem-limit style
// flags: a plain integer is bytes; suffixes K/M/G/T (and KB/MB/..,
// KiB/MiB/..) are binary multiples. Empty input is 0 (no limit).
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"TIB", 1 << 40}, {"TB", 1 << 40}, {"T", 1 << 40},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.text) {
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.text))
			mult = suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("campaign: bad byte size %q", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("campaign: byte size %q overflows", s)
	}
	return n * mult, nil
}

// inWorker flips when ServeWorker takes over the process.
var inWorker atomic.Bool

// InWorker reports whether this process is executing as a campaign
// worker. Jobs that deliberately misbehave under test (self-SIGKILL,
// runaway allocation) gate on it so the same Job values run clean when
// executed in-process.
func InWorker() bool { return inWorker.Load() }

// ServeWorker runs the worker side of the process-isolation protocol
// and returns the process exit code. The caller (a binary that saw
// WorkerFlag in argv) must rebuild the same job list the supervisor
// runs — same names, same specs — and os.Exit with the return value.
//
// A SIGTERM from the supervisor (stall escalation's soft-cancel step, or
// campaign drain) cancels the attempt's context; jobs that honour their
// context exit cleanly with the canceled class, and jobs that do not are
// SIGKILLed by the supervisor after its grace window.
func ServeWorker(jobs []Job) int {
	inWorker.Store(true)
	respond := func(resp workerResponse) {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(resp); err != nil {
			fmt.Fprintf(os.Stderr, "campaign worker: writing response: %v\n", err)
		}
	}

	var req workerRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		respond(workerResponse{Error: fmt.Sprintf("bad worker request: %v", err), Class: ClassFatal.String()})
		return WorkerExitProtocol
	}
	pipe := os.NewFile(3, "campaign-heartbeat")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	table, _, err := ServeAttempt(ctx, jobs, Assignment{
		Name:           req.Name,
		Hash:           req.Hash,
		Attempt:        req.Attempt,
		CheckpointDir:  req.CheckpointDir,
		HeartbeatEvery: time.Duration(req.HeartbeatEveryMS) * time.Millisecond,
		WantMetrics:    req.WantMetrics,
		SLO:            req.SLO,
	}, func(f HeartbeatFrame) error { return WriteFrameJSON(pipe, f) })
	if errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrSpecMismatch) {
		respond(workerResponse{Error: err.Error(), Class: ClassFatal.String()})
		return WorkerExitProtocol
	}
	if err == nil {
		respond(workerResponse{Table: table})
		return 0
	}
	class := Classify(err)
	respond(workerResponse{Table: table, Error: err.Error(), Class: class.String()})
	switch class {
	case ClassFatal:
		return WorkerExitFatal
	case ClassCanceled:
		return WorkerExitCanceled
	default:
		return WorkerExitTransient
	}
}

// Assignment is one job attempt as a worker receives it from its
// supervisor's stdin request.
type Assignment struct {
	Name    string
	Hash    string
	Attempt int
	// CheckpointDir, when non-empty, is threaded into the attempt's
	// context (see CheckpointDir).
	CheckpointDir string
	// HeartbeatEvery throttles grid frames (<=0 selects
	// DefaultHeartbeatEvery).
	HeartbeatEvery time.Duration
	// WantMetrics instruments the attempt with a local registry whose
	// deltas ride the frames, together with SLO alerts when SLO is set.
	WantMetrics bool
	SLO         string
}

// Assignment errors: the worker's job list diverges from the
// supervisor's, so the request cannot be served at all. ServeAttempt
// returns them Fatal-classified, since a retry would resend the same
// request.
var (
	ErrUnknownJob   = errors.New("unknown job")
	ErrSpecMismatch = errors.New("spec hash mismatch")
)

// ServeAttempt is the worker side of one attempt, as ServeWorker runs
// it for a stdin request. It resolves the job by name and verifies its spec hash,
// threads the checkpoint directory and a HeartbeatWriter over sink into
// the context, attaches a local registry and SLO monitor when metrics
// are wanted, and runs the attempt with panic containment between a
// start and a done frame. An assignment that cannot be served returns
// an error matching ErrUnknownJob or ErrSpecMismatch and emits no frame.
// lastCycle is the newest grid cycle the attempt reached.
func ServeAttempt(ctx context.Context, jobs []Job, a Assignment, sink func(HeartbeatFrame) error) (table *harness.Table, lastCycle uint64, err error) {
	i := slices.IndexFunc(jobs, func(j Job) bool { return j.Name == a.Name })
	if i < 0 {
		return nil, 0, Fatal(fmt.Errorf("%w %q (worker job list diverges from supervisor)", ErrUnknownJob, a.Name))
	}
	job := jobs[i]
	if h := job.Hash(); h != a.Hash {
		return nil, 0, Fatal(fmt.Errorf("%w for %q: worker built %s, supervisor sent %s (job lists diverge)", ErrSpecMismatch, a.Name, h, a.Hash))
	}

	hw := NewHeartbeatWriter(sink, a.HeartbeatEvery)
	if a.CheckpointDir != "" {
		ctx = WithCheckpointDir(ctx, a.CheckpointDir)
	}
	ctx = core.WithHeartbeatFunc(ctx, hw.Beat)
	if a.WantMetrics {
		// Fleet telemetry: the attempt instruments itself into a local
		// registry; deltas (and SLO alerts, when rules were sent) ride
		// the heartbeat frames back to the supervisor.
		reg := obs.NewRegistry()
		var monitor *obs.SLOMonitor
		if a.SLO != "" {
			if rules, err := obs.ParseSLOSpec(a.SLO); err == nil {
				monitor = obs.NewSLOMonitor(rules, reg, nil)
			} else {
				fmt.Fprintf(os.Stderr, "campaign worker: ignoring SLO spec: %v\n", err)
			}
		}
		ctx = obs.NewContext(ctx, &obs.Bundle{Registry: reg, Alerts: monitor})
		hw.SetTelemetry(obs.NewDeltaTracker(reg), monitor)
	}

	hw.Emit(FrameStart)
	table, err = runAttempt(ctx, job, a.Attempt)
	hw.Emit(FrameDone) // flushes the final metrics delta
	return table, hw.LastCycle(), err
}
