package campaign

import (
	"fmt"
	"sync"
	"time"

	"camouflage/internal/obs"
)

// JobState is a job's live state as exposed by the introspection
// endpoint — a superset of the terminal Status values with the
// in-flight states queued, running and backoff.
type JobState string

// Live job states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateBackoff JobState = "backoff"
	StateDone    JobState = "done"
	StateResumed JobState = "resumed"
	StateFailed  JobState = "failed"
	StateCancel  JobState = "canceled"
	StateSkipped JobState = "skipped"
)

// JobView is one job's introspection snapshot, rendered as JSON by the
// obs server's /jobs handler.
type JobView struct {
	Name      string   `json:"name"`
	Hash      string   `json:"hash"`
	State     JobState `json:"state"`
	Attempts  int      `json:"attempts,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// Progress is the campaign's live state table. Run updates it from the
// worker goroutines; the obs HTTP server and the progress reporter read
// snapshots. All methods are nil-safe so Run can drive it
// unconditionally.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	jobs    map[string]*JobView // by hash
	order   []string            // hashes in input order
	started map[string]time.Time

	gauges  map[JobState]*obs.Gauge
	retries *obs.Counter
	backoff *obs.Counter // cumulative backoff wait, milliseconds
	wm      workerMetrics
}

// workerMetrics holds the process-isolation instruments
// (campaign.worker.*). The zero value is fully usable: every obs
// instrument is nil-safe, so executors can record unconditionally
// whether or not a Progress (or a registry) is attached.
type workerMetrics struct {
	// restarts counts worker deaths that will be retried (crash, signal,
	// OOM kill, stall kill).
	restarts *obs.Counter
	// stallsKilled / oomKilled count supervisor-initiated escalations.
	stallsKilled *obs.Counter
	oomKilled    *obs.Counter
	// heartbeats counts frames received across all workers.
	heartbeats *obs.Counter
	// peakRSS is the largest worker RSS observed, in bytes.
	peakRSS *obs.Gauge
}

// workerMetrics returns the instruments (the zero value when p is nil).
func (p *Progress) workerMetrics() workerMetrics {
	if p == nil {
		return workerMetrics{}
	}
	return p.wm
}

// NewProgress returns a tracker publishing job-state gauges
// (campaign.jobs.<state>), a retry counter (campaign.retries), a
// cumulative backoff-wait counter (campaign.backoff_ms) and the
// process-isolation worker instruments (campaign.worker.*) into reg,
// which may be nil for a metrics-less tracker.
func NewProgress(reg *obs.Registry) *Progress {
	p := &Progress{
		start:   time.Now(),
		jobs:    make(map[string]*JobView),
		started: make(map[string]time.Time),
		gauges:  make(map[JobState]*obs.Gauge),
		retries: reg.Counter("campaign.retries"),
		backoff: reg.Counter("campaign.backoff_ms"),
		wm: workerMetrics{
			restarts:     reg.Counter("campaign.worker.restarts"),
			stallsKilled: reg.Counter("campaign.worker.stalls_killed"),
			oomKilled:    reg.Counter("campaign.worker.oom_killed"),
			heartbeats:   reg.Counter("campaign.worker.heartbeats"),
			peakRSS:      reg.Gauge("campaign.worker.peak_rss_bytes"),
		},
	}
	for _, st := range []JobState{StateQueued, StateRunning, StateBackoff,
		StateDone, StateResumed, StateFailed, StateCancel, StateSkipped} {
		p.gauges[st] = reg.Gauge("campaign.jobs." + string(st))
	}
	return p
}

// add registers a job in its initial state.
func (p *Progress) add(name, hash string, st JobState) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.jobs[hash]; !ok {
		p.order = append(p.order, hash)
	}
	p.jobs[hash] = &JobView{Name: name, Hash: hash, State: st}
	p.publishLocked()
	p.mu.Unlock()
}

// set transitions a job to st, tracking attempt counts and elapsed time.
func (p *Progress) set(hash string, st JobState, attempt int, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	v, ok := p.jobs[hash]
	if !ok {
		p.mu.Unlock()
		return
	}
	if st == StateRunning {
		if _, running := p.started[hash]; !running {
			p.started[hash] = time.Now()
		}
		if attempt > 1 {
			p.retries.Inc()
		}
	}
	if t, ok := p.started[hash]; ok {
		v.ElapsedMS = time.Since(t).Milliseconds()
	}
	v.State = st
	if attempt > 0 {
		v.Attempts = attempt
	}
	if err != nil {
		v.Error = err.Error()
	}
	p.publishLocked()
	p.mu.Unlock()
}

// addBackoff accrues d into the cumulative backoff-wait counter.
func (p *Progress) addBackoff(d time.Duration) {
	if p == nil {
		return
	}
	p.backoff.Add(uint64(d.Milliseconds()))
}

// publishLocked refreshes the per-state gauges. Callers hold p.mu.
func (p *Progress) publishLocked() {
	counts := make(map[JobState]int, len(p.gauges))
	for _, v := range p.jobs {
		counts[v.State]++
	}
	for st, g := range p.gauges {
		g.Set(float64(counts[st]))
	}
}

// Snapshot returns every job's view in input order.
func (p *Progress) Snapshot() []JobView {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobView, 0, len(p.order))
	for _, h := range p.order {
		out = append(out, *p.jobs[h])
	}
	return out
}

// WorkerStats is the fleet-health summary (the campaign.worker.*
// instruments) rendered into /jobs snapshots and the progress line.
type WorkerStats struct {
	Restarts     uint64 `json:"restarts"`
	StallsKilled uint64 `json:"stalls_killed"`
	OOMKilled    uint64 `json:"oom_killed"`
	Heartbeats   uint64 `json:"heartbeats"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
}

// WorkerStats reads the current worker-instrument values (zeros on a
// nil tracker or one built without a registry).
func (p *Progress) WorkerStats() WorkerStats {
	if p == nil {
		return WorkerStats{}
	}
	return WorkerStats{
		Restarts:     p.wm.restarts.Value(),
		StallsKilled: p.wm.stallsKilled.Value(),
		OOMKilled:    p.wm.oomKilled.Value(),
		Heartbeats:   p.wm.heartbeats.Value(),
		PeakRSSBytes: int64(p.wm.peakRSS.Value()),
	}
}

// JobsView is the full /jobs document: per-job states plus the fleet
// worker summary.
type JobsView struct {
	Jobs   []JobView   `json:"jobs"`
	Worker WorkerStats `json:"worker"`
}

// JobsSnapshot bundles Snapshot with WorkerStats — the value the obs
// server's Jobs callback should return so fleet health is visible
// without scraping /metrics. Nil-safe (an empty document).
func (p *Progress) JobsSnapshot() JobsView {
	jobs := p.Snapshot()
	if jobs == nil {
		jobs = []JobView{}
	}
	return JobsView{Jobs: jobs, Worker: p.WorkerStats()}
}

// Line renders the one-line progress report: state counts in a fixed
// order plus wall-clock elapsed since the tracker was created.
func (p *Progress) Line() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	counts := make(map[JobState]int)
	for _, v := range p.jobs {
		counts[v.State]++
	}
	total := len(p.jobs)
	elapsed := time.Since(p.start).Round(time.Second)
	p.mu.Unlock()
	line := fmt.Sprintf("campaign: %d/%d done", counts[StateDone]+counts[StateResumed], total)
	for _, st := range []JobState{StateRunning, StateBackoff, StateQueued,
		StateFailed, StateCancel, StateSkipped} {
		if counts[st] > 0 {
			line += fmt.Sprintf(", %d %s", counts[st], st)
		}
	}
	// Fleet health rides the same line, but only once something worth
	// reporting happened — a quiet campaign keeps its short status.
	ws := p.WorkerStats()
	for _, c := range []struct {
		n     uint64
		label string
	}{
		{ws.Restarts, "restarts"},
		{ws.StallsKilled, "stalls_killed"},
		{ws.OOMKilled, "oom_killed"},
	} {
		if c.n > 0 {
			line += fmt.Sprintf(", %d %s", c.n, c.label)
		}
	}
	return line + fmt.Sprintf(" [%s]", elapsed)
}
