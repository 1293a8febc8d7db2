package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"camouflage/internal/sim"
)

// SLORule is one declarative threshold rule on a security metric.
// Metric is matched as a name suffix against every scalar instrument
// (exact name, or any name ending in "."+Metric), so one rule like
// "drift_l1" covers every shaper on every core.
type SLORule struct {
	Name    string  // rule label carried into alerts
	Metric  string  // instrument-name suffix to watch
	Max     float64 // violation when value > Max
	Sustain int     // consecutive grid strides above Max before raising (>=1)
}

// ParseSLOSpec parses a comma-separated rule list of the form
// "metric>max" or "metric>max:sustain", e.g.
// "drift_l1>0.15:3,drift_l1_epoch>0.25".
func ParseSLOSpec(spec string) ([]SLORule, error) {
	var rules []SLORule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		metric, rest, ok := strings.Cut(part, ">")
		if !ok || metric == "" {
			return nil, fmt.Errorf("slo rule %q: want metric>max[:sustain]", part)
		}
		maxStr, susStr, hasSus := strings.Cut(rest, ":")
		max, err := strconv.ParseFloat(maxStr, 64)
		if err != nil {
			return nil, fmt.Errorf("slo rule %q: bad threshold: %v", part, err)
		}
		sustain := 1
		if hasSus {
			sustain, err = strconv.Atoi(susStr)
			if err != nil || sustain < 1 {
				return nil, fmt.Errorf("slo rule %q: bad sustain %q", part, susStr)
			}
		}
		rules = append(rules, SLORule{Name: part, Metric: metric, Max: max, Sustain: sustain})
	}
	return rules, nil
}

// Alert is one SLO transition. Kind is "raised" (metric exceeded Max for
// Sustain consecutive grid strides) or "cleared" (a raised metric
// returned to bounds).
// The json tags shape the heartbeat-frame wire form (workers forward
// alerts to the supervisor); the log/endpoint rendering below is
// hand-marshaled and does not use them.
type Alert struct {
	Cycle     sim.Cycle `json:"cycle"`
	Rule      string    `json:"rule"`
	Metric    string    `json:"metric"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Sustained int       `json:"sustained"`
	Kind      string    `json:"kind"`
}

// appendJSON renders the alert with fixed field order so same-seed runs
// produce byte-identical logs.
func (a Alert) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"cycle":`...)
	buf = strconv.AppendUint(buf, uint64(a.Cycle), 10)
	buf = append(buf, `,"rule":`...)
	buf = strconv.AppendQuote(buf, a.Rule)
	buf = append(buf, `,"metric":`...)
	buf = strconv.AppendQuote(buf, a.Metric)
	buf = append(buf, `,"value":`...)
	buf = jsonFloat(buf, a.Value)
	buf = append(buf, `,"threshold":`...)
	buf = jsonFloat(buf, a.Threshold)
	buf = append(buf, `,"sustained":`...)
	buf = strconv.AppendInt(buf, int64(a.Sustained), 10)
	buf = append(buf, `,"kind":`...)
	buf = strconv.AppendQuote(buf, a.Kind)
	return append(buf, '}')
}

// sloState tracks one (rule, metric) pair across grid strides.
type sloState struct {
	streak int
	active bool
	// last is the most recent grid cycle stepped (valid when seen):
	// duplicate deliveries of one cycle — e.g. a run's trailing
	// end-of-run sample landing on the final in-loop grid point — must
	// not advance the streak twice.
	last sim.Cycle
	seen bool
}

// maxRecentAlerts bounds the in-memory ring behind /alerts.
const maxRecentAlerts = 256

// SLOMonitor evaluates threshold rules on every supervision grid point.
// Evaluation iterates the registry's sorted index and the rules in
// declaration order, so with a deterministic simulation the emitted
// alert sequence — and therefore the JSONL log — is byte-identical
// across same-seed runs. All methods are nil-safe.
type SLOMonitor struct {
	mu      sync.Mutex
	rules   []SLORule
	state   map[string]*sloState
	sink    io.Writer // optional JSONL log
	sinkErr error
	recent  []Alert // bounded ring served by /alerts
	pending []Alert // alerts since last Drain (worker->supervisor transport)
	raised  *Counter
	cleared *Counter
	active  *Gauge
	nActive int
}

// NewSLOMonitor builds a monitor over rules, registering obs.alerts.*
// instruments in reg. sink, when non-nil, receives one JSON line per
// alert transition.
func NewSLOMonitor(rules []SLORule, reg *Registry, sink io.Writer) *SLOMonitor {
	if len(rules) == 0 {
		return nil
	}
	return &SLOMonitor{
		rules:   rules,
		state:   make(map[string]*sloState),
		sink:    sink,
		raised:  reg.Counter("obs.alerts.raised"),
		cleared: reg.Counter("obs.alerts.cleared"),
		active:  reg.Gauge("obs.alerts.active"),
	}
}

// Check evaluates every rule against reg at the given grid cycle. Call
// it from the goroutine that owns the grid (the simulation loop, or the
// supervisor's merge path for worker-reported metrics).
func (m *SLOMonitor) Check(reg *Registry, cycle sim.Cycle) {
	if m == nil || reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	reg.ForEachScalar(func(name string, value float64) {
		for i := range m.rules {
			r := &m.rules[i]
			if !metricMatches(name, r.Metric) {
				continue
			}
			m.step(r, name, value, cycle)
		}
	})
}

// Observe evaluates the rules against a single externally supplied
// sample (the supervisor's view of a worker metric).
func (m *SLOMonitor) Observe(name string, value float64, cycle sim.Cycle) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.rules {
		r := &m.rules[i]
		if !metricMatches(name, r.Metric) {
			continue
		}
		m.step(r, name, value, cycle)
	}
}

func metricMatches(name, metric string) bool {
	return name == metric || (strings.HasSuffix(name, metric) &&
		len(name) > len(metric) && name[len(name)-len(metric)-1] == '.')
}

func (m *SLOMonitor) step(r *SLORule, name string, value float64, cycle sim.Cycle) {
	key := r.Name + "|" + name
	st, ok := m.state[key]
	if !ok {
		st = &sloState{}
		m.state[key] = st
	}
	if st.seen && st.last == cycle {
		return // same grid cycle delivered twice: keep step idempotent
	}
	st.seen, st.last = true, cycle
	if value > r.Max {
		st.streak++
		if st.streak >= r.Sustain && !st.active {
			st.active = true
			m.nActive++
			m.emit(Alert{
				Cycle: cycle, Rule: r.Name, Metric: name,
				Value: value, Threshold: r.Max,
				Sustained: st.streak, Kind: "raised",
			})
		}
		return
	}
	st.streak = 0
	if st.active {
		st.active = false
		m.nActive--
		m.emit(Alert{
			Cycle: cycle, Rule: r.Name, Metric: name,
			Value: value, Threshold: r.Max,
			Sustained: 0, Kind: "cleared",
		})
	}
}

// emit records one transition: counters, ring, pending queue, JSONL
// sink, capture hook. Caller holds m.mu.
func (m *SLOMonitor) emit(a Alert) {
	if a.Kind == "raised" {
		m.raised.Inc()
	} else {
		m.cleared.Inc()
	}
	m.active.Set(float64(m.nActive))
	if len(m.recent) >= maxRecentAlerts {
		copy(m.recent, m.recent[1:])
		m.recent = m.recent[:len(m.recent)-1]
	}
	m.recent = append(m.recent, a)
	m.pending = append(m.pending, a)
	if m.sink != nil && m.sinkErr == nil {
		line := a.appendJSON(make([]byte, 0, 160))
		line = append(line, '\n')
		if _, err := m.sink.Write(line); err != nil {
			m.sinkErr = err // degrade: stop writing, keep monitoring
		}
	}
}

// Drain returns the alerts emitted since the previous Drain and clears
// the queue. Workers piggyback the result on heartbeat frames.
func (m *SLOMonitor) Drain() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return nil
	}
	out := m.pending
	m.pending = nil
	return out
}

// Ingest records alerts produced elsewhere (a worker process), with
// metric names rewritten under prefix. Counters, the ring, the sink,
// and the capture hook all fire as for local alerts; the pending queue
// does not (supervisors do not re-forward).
func (m *SLOMonitor) Ingest(prefix string, alerts []Alert) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range alerts {
		a.Metric = prefix + a.Metric
		if a.Kind == "raised" {
			m.nActive++
		} else if m.nActive > 0 {
			m.nActive--
		}
		m.emit(a)
	}
}

// SinkErr reports the first JSONL write failure, if any.
func (m *SLOMonitor) SinkErr() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sinkErr
}

// DumpJSON writes the recent-alert ring as
//
//	{"alerts":[{...},...]}
//
// with the same fixed per-alert field order as the JSONL log. A nil
// monitor yields the valid empty document.
func (m *SLOMonitor) DumpJSON(w io.Writer) (int64, error) {
	buf := make([]byte, 0, 1<<10)
	buf = append(buf, `{"alerts":[`...)
	if m != nil {
		m.mu.Lock()
		for i, a := range m.recent {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = a.appendJSON(buf)
		}
		m.mu.Unlock()
	}
	buf = append(buf, "]}\n"...)
	n, err := w.Write(buf)
	return int64(n), err
}
