package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/iofault"
)

// Worker reconnect defaults; deliberately the same shape as the
// campaign retry loop.
const (
	DefaultReconnectBackoff    = 250 * time.Millisecond
	DefaultReconnectMaxBackoff = 5 * time.Second
)

// errDrained signals a clean supervisor-initiated shutdown.
var errDrained = errors.New("dispatch: drained")

// ErrHandshakeRefused marks a supervisor's permanent rejection (bad
// token, diverging job list). The worker does not retry it: the same
// hello would be refused identically. Transient refusals (supervisor
// draining) carry the ack's retry flag instead and are redialed with
// backoff.
var ErrHandshakeRefused = errors.New("dispatch: handshake refused")

// WorkerConfig configures one remote campaign worker.
type WorkerConfig struct {
	// Addr is the supervisor's host:port.
	Addr string
	// Token is the shared campaign secret.
	Token string
	// ID names this worker to the supervisor; it becomes the fleet
	// metric label, so keep it to [A-Za-z0-9_-]. Empty lets the
	// supervisor label by remote address.
	ID string
	// Jobs must be built identically to the supervisor's list — the
	// handshake verifies campaign.JobsHash over it.
	Jobs []campaign.Job
	// CheckpointRoot, when non-empty, gives each assigned job a private
	// checkpoint directory <root>/<spec-hash>, so a re-assigned attempt
	// resumes instead of restarting.
	CheckpointRoot string
	// Backoff/MaxBackoff/Seed drive the deterministic reconnect
	// schedule (campaign.BackoffDelay keyed by ID). Zero values select
	// the defaults.
	Backoff    time.Duration
	MaxBackoff time.Duration
	Seed       uint64
	// MaxDials bounds consecutive failed connection attempts before
	// RunWorker gives up (0 = keep retrying until ctx cancels).
	MaxDials int
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
	// Faults, when non-nil, wraps every dialed connection with injected
	// network chaos (the dial-side partition primitive).
	Faults *iofault.Injector
	// Dial overrides the dialer (tests); nil uses net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// RunWorker connects to the supervisor and serves assigned jobs until
// ctx cancels, the supervisor drains the fleet (returns nil), or the
// handshake is permanently refused. A lost connection cancels the
// running attempt (its checkpoint state survives) and reconnects with
// deterministic exponential backoff; the supervisor re-leases the job
// and a re-assignment resumes from the spec-hash-keyed checkpoint, so
// the healed worker's output is byte-identical to an uninterrupted run.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultReconnectBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultReconnectMaxBackoff
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dial := cfg.Dial
	if dial == nil {
		var d net.Dialer
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	fleetHash := campaign.JobsHash(cfg.Jobs)
	key := cfg.ID
	if key == "" {
		key = cfg.Addr
	}

	w := &workerState{cfg: cfg, logf: logf, fleetHash: fleetHash}
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := dial(ctx, cfg.Addr)
		if err == nil {
			conn = cfg.Faults.WrapConn(conn)
			err = w.serveConn(ctx, conn)
			conn.Close()
			switch {
			case errors.Is(err, errDrained):
				logf("dispatch worker: drained by supervisor")
				return nil
			case errors.Is(err, ErrHandshakeRefused):
				return err
			}
			if w.handshook {
				failures = 0 // the link worked; restart the backoff ladder
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logf("dispatch worker: connection lost (%v); reconnecting", err)
		}
		failures++
		if cfg.MaxDials > 0 && failures >= cfg.MaxDials {
			return fmt.Errorf("dispatch: giving up after %d connection attempts: %w", failures, err)
		}
		delay := campaign.BackoffDelay(cfg.Backoff, cfg.MaxBackoff, cfg.Seed, key, failures)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// workerState carries per-process worker state across reconnects.
type workerState struct {
	cfg       WorkerConfig
	logf      func(string, ...any)
	fleetHash string
	// lastCycle is the highest heartbeat cycle this worker ever
	// emitted; it rides the next hello so the supervisor knows the
	// resume point.
	lastCycle uint64
	// assignedID is the supervisor-assigned identity for a worker that
	// announced no ID of its own; echoing it on reconnect keeps the
	// fleet label stable across redials.
	assignedID string
	// handshook reports whether the most recent connection completed
	// its handshake.
	handshook bool
}

// serveConn handshakes and serves one connection until it breaks or the
// supervisor drains.
func (w *workerState) serveConn(ctx context.Context, conn net.Conn) error {
	w.handshook = false
	id := w.cfg.ID
	if id == "" {
		id = w.assignedID
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hello := msg{
		Type:      msgHello,
		Token:     w.cfg.Token,
		FleetHash: w.fleetHash,
		WorkerID:  id,
		LastAck:   w.lastCycle,
	}
	if err := campaign.WriteFrameJSON(conn, hello); err != nil {
		return fmt.Errorf("dispatch: sending hello: %w", err)
	}
	var ack msg
	if err := campaign.ReadFrameJSON(conn, &ack); err != nil {
		return fmt.Errorf("dispatch: reading hello-ack: %w", err)
	}
	conn.SetDeadline(time.Time{})
	if ack.Type != msgHelloAck || !ack.OK {
		if ack.Retry {
			// Transient refusal (supervisor draining): redial with
			// backoff rather than dying permanently.
			return fmt.Errorf("dispatch: handshake deferred: %s", ack.Reason)
		}
		return fmt.Errorf("%w: %s", ErrHandshakeRefused, ack.Reason)
	}
	if w.cfg.ID == "" && ack.WorkerID != "" {
		w.assignedID = ack.WorkerID
	}
	w.handshook = true
	w.logf("dispatch worker: connected to %s (supervisor last saw cycle %d)", w.cfg.Addr, ack.LastAck)

	cw := &connWriter{conn: conn}
	var (
		runMu   sync.Mutex
		running string             // job hash of the in-flight attempt
		cancel  context.CancelFunc // cancels the in-flight attempt
		runDone chan struct{}      // closed when the attempt goroutine exits
	)
	cancelRunning := func(hash string) {
		runMu.Lock()
		if cancel != nil && (hash == "" || running == hash) {
			cancel()
		}
		runMu.Unlock()
	}
	waitRunning := func() {
		runMu.Lock()
		done := runDone
		runMu.Unlock()
		if done != nil {
			<-done
		}
	}
	defer func() {
		// The connection is gone: cancel the in-flight attempt so it
		// checkpoints and stops, then wait for it — the next connection
		// must not race it for the checkpoint directory.
		cancelRunning("")
		waitRunning()
	}()

	for {
		var m msg
		if err := campaign.ReadFrameJSON(conn, &m); err != nil {
			if err == io.EOF {
				return fmt.Errorf("dispatch: supervisor closed the connection")
			}
			return err
		}
		switch m.Type {
		case msgAssign:
			runMu.Lock()
			busy, prev := running != "", runDone
			runMu.Unlock()
			if busy {
				cw.send(msg{Type: msgResult, JobName: m.JobName, JobHash: m.JobHash, Attempt: m.Attempt, Fence: m.Fence,
					Error: "worker already running a job (supervisor protocol error)", Class: campaign.ClassFatal.String()})
				continue
			}
			if prev != nil {
				// The previous attempt is over and at most finishing the
				// delivery of its result, which the supervisor has already
				// read: wait for it rather than race it.
				<-prev
			}
			runMu.Lock()
			attemptCtx, c := context.WithCancel(ctx)
			cancel = c
			running = m.JobHash
			done := make(chan struct{})
			runDone = done
			runMu.Unlock()
			go func(m msg) {
				defer close(done)
				result := w.runAssignment(attemptCtx, cw, m)
				// Free the worker before reporting: once the supervisor
				// has the result it may assign the next job at once.
				runMu.Lock()
				running = ""
				runMu.Unlock()
				if serr := cw.send(result); serr != nil {
					// The connection died with the result in hand. The
					// supervisor re-leases the job; determinism makes the
					// re-run identical.
					w.logf("dispatch worker: could not deliver result for %s: %v", m.JobName, serr)
				}
			}(m)
		case msgCancel:
			cancelRunning(m.JobHash)
		case msgDrain:
			cancelRunning("")
			waitRunning()
			return errDrained
		default:
			w.logf("dispatch worker: unexpected %q frame", m.Type)
		}
	}
}

// runAssignment executes one assigned attempt, streaming its heartbeats
// on cw, and returns the result message to report.
func (w *workerState) runAssignment(ctx context.Context, cw *connWriter, m msg) msg {
	dir := ""
	if w.cfg.CheckpointRoot != "" {
		dir = filepath.Join(w.cfg.CheckpointRoot, m.JobHash)
	}
	table, lastCycle, err := campaign.ServeAttempt(ctx, w.cfg.Jobs, campaign.Assignment{
		Name:           m.JobName,
		Hash:           m.JobHash,
		Attempt:        m.Attempt,
		CheckpointDir:  dir,
		HeartbeatEvery: time.Duration(m.HeartbeatMS) * time.Millisecond,
		WantMetrics:    m.WantMetrics,
		SLO:            m.SLO,
	}, func(f campaign.HeartbeatFrame) error {
		// Beats are stamped with the lease fence so the supervisor can
		// fence out zombies.
		return cw.send(msg{Type: msgBeat, JobHash: m.JobHash, Fence: m.Fence, Beat: &f})
	})
	if lastCycle > w.lastCycle {
		w.lastCycle = lastCycle
	}

	result := msg{Type: msgResult, JobName: m.JobName, JobHash: m.JobHash, Attempt: m.Attempt, Fence: m.Fence, Table: table}
	if err != nil {
		result.Error = err.Error()
		result.Class = campaign.Classify(err).String()
	}
	return result
}

// connWriter serializes frame writes on a shared connection (beats from
// the simulation goroutine race results from the serve loop).
type connWriter struct {
	mu     sync.Mutex
	conn   net.Conn
	broken bool
}

func (c *connWriter) send(m msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return fmt.Errorf("dispatch: connection marked broken")
	}
	if err := campaign.WriteFrameJSON(c.conn, m); err != nil {
		c.broken = true
		return err
	}
	return nil
}
