package obs

import (
	"strings"

	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// MetricsDelta is the compact metric payload a worker piggybacks on its
// heartbeat frames: counter increments and histogram bucket increments
// since the previous frame, plus the absolute values of gauges that
// changed. Histogram bin edges ride along only the first time a
// histogram appears (frames travel a reliable in-order pipe, so the
// receiver can cache them). encoding/json sorts map keys, so the wire
// form is deterministic.
type MetricsDelta struct {
	Counters map[string]uint64    `json:"counters,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Hists    map[string]HistDelta `json:"hists,omitempty"`
}

// HistDelta carries one histogram's bucket increments; Edges only on
// first appearance.
type HistDelta struct {
	Edges  []uint64 `json:"edges,omitempty"`
	Counts []uint64 `json:"counts"`
}

// Empty reports whether the delta carries nothing.
func (d *MetricsDelta) Empty() bool {
	return d == nil || (len(d.Counters) == 0 && len(d.Gauges) == 0 && len(d.Hists) == 0)
}

// DeltaTracker computes successive MetricsDeltas for one registry. The
// baseline advances only when Delta is called, so wall-clock heartbeat
// throttling can skip frames without losing increments — the next
// emitted frame carries everything since the last one that shipped.
type DeltaTracker struct {
	reg       *Registry
	lastC     map[string]uint64
	lastG     map[string]float64
	lastH     map[string][]uint64
	sentEdges map[string]bool
}

// NewDeltaTracker returns a tracker with a zero baseline (the first
// Delta reports all activity since registry creation). Nil-safe.
func NewDeltaTracker(reg *Registry) *DeltaTracker {
	if reg == nil {
		return nil
	}
	return &DeltaTracker{
		reg:       reg,
		lastC:     make(map[string]uint64),
		lastG:     make(map[string]float64),
		lastH:     make(map[string][]uint64),
		sentEdges: make(map[string]bool),
	}
}

// Delta returns the changes since the previous call, advancing the
// baseline, or nil when nothing changed.
func (t *DeltaTracker) Delta() *MetricsDelta {
	if t == nil {
		return nil
	}
	d := &MetricsDelta{}
	r := t.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		v := c.Value()
		if dv := v - t.lastC[name]; dv != 0 {
			if d.Counters == nil {
				d.Counters = make(map[string]uint64)
			}
			d.Counters[name] = dv
			t.lastC[name] = v
		}
	}
	for name, g := range r.gauges {
		v := g.Value()
		last, seen := t.lastG[name]
		if !seen && v == 0 {
			continue // never-set zero gauges stay off the wire
		}
		if !seen || v != last {
			if d.Gauges == nil {
				d.Gauges = make(map[string]float64)
			}
			d.Gauges[name] = v
			t.lastG[name] = v
		}
	}
	for name, h := range r.hists {
		last := t.lastH[name]
		var counts []uint64
		changed := false
		for i := range h.counts {
			v := h.counts[i].Load()
			var prev uint64
			if i < len(last) {
				prev = last[i]
			}
			if counts == nil {
				counts = make([]uint64, len(h.counts))
			}
			counts[i] = v - prev
			if counts[i] != 0 {
				changed = true
			}
		}
		if !changed {
			continue
		}
		hd := HistDelta{Counts: counts}
		if !t.sentEdges[name] {
			hd.Edges = make([]uint64, len(h.binning.Edges))
			for i, e := range h.binning.Edges {
				hd.Edges[i] = uint64(e)
			}
			t.sentEdges[name] = true
		}
		if d.Hists == nil {
			d.Hists = make(map[string]HistDelta)
		}
		d.Hists[name] = hd
		abs := make([]uint64, len(h.counts))
		for i := range h.counts {
			abs[i] = h.counts[i].Load()
		}
		t.lastH[name] = abs
	}
	if d.Empty() {
		return nil
	}
	return d
}

// Merger folds worker MetricsDeltas into a supervisor registry under an
// interned name prefix (one Merger per attempt, prefix like
// "worker.<jobhash>."). Counter and bucket increments Add; gauges Set.
// Apply may be called from supervisor heartbeat goroutines — instrument
// mutation is atomic and name interning takes the registry mutex.
type Merger struct {
	reg    *Registry
	prefix string
	hist   *History // optional: merged scalars also recorded as series
	// interned instrument handles so steady-state frames do no map work
	// in the registry.
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*CycleHist
}

// NewMerger returns a merger writing under prefix, first zeroing any
// instruments already registered there: a restarted attempt re-reports
// from a fresh process registry, so `worker.<hash>.` always reflects
// the live attempt rather than double-counting its predecessors.
func NewMerger(reg *Registry, prefix string) *Merger {
	if reg == nil {
		return nil
	}
	reg.ZeroPrefix(prefix)
	return &Merger{
		reg:      reg,
		prefix:   prefix,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*CycleHist),
	}
}

// SetHistory makes Apply additionally record every merged scalar as a
// (cycle, value) sample under its prefixed name.
func (m *Merger) SetHistory(h *History) {
	if m != nil {
		m.hist = h
	}
}

// Apply folds one delta into the registry at the frame's grid cycle.
// Nil-safe.
func (m *Merger) Apply(d *MetricsDelta, cycle sim.Cycle) {
	if m == nil || d.Empty() {
		return
	}
	for name, dv := range d.Counters {
		c, ok := m.counters[name]
		if !ok {
			c = m.reg.Counter(m.prefix + name)
			m.counters[name] = c
		}
		c.Add(dv)
		m.hist.Append(m.prefix+name, cycle, float64(c.Value()))
	}
	for name, v := range d.Gauges {
		g, ok := m.gauges[name]
		if !ok {
			g = m.reg.Gauge(m.prefix + name)
			m.gauges[name] = g
		}
		g.Set(v)
		m.hist.Append(m.prefix+name, cycle, v)
	}
	for name, hd := range d.Hists {
		h, ok := m.hists[name]
		if !ok {
			if len(hd.Edges) == 0 {
				continue // edges lost (shouldn't happen on a pipe); skip
			}
			edges := make([]sim.Cycle, len(hd.Edges))
			for i, e := range hd.Edges {
				edges[i] = sim.Cycle(e)
			}
			h = m.reg.CycleHist(m.prefix+name, stats.Binning{Edges: edges})
			m.hists[name] = h
		}
		for i, dv := range hd.Counts {
			if dv != 0 && i < len(h.counts) {
				h.counts[i].Add(dv)
			}
		}
		// Mirror ForEachScalar: the histogram's scalar face is its
		// _total sum, so the fleet history shows the same series an
		// in-process capture would.
		var total uint64
		for i := range h.counts {
			total += h.counts[i].Load()
		}
		m.hist.Append(m.prefix+name+"_total", cycle, float64(total))
	}
}

// Prefix returns the merger's interned name prefix.
func (m *Merger) Prefix() string {
	if m == nil {
		return ""
	}
	return m.prefix
}

// ZeroPrefix resets every instrument whose name starts with prefix:
// counters and histogram buckets to zero, gauges to zero. Registration
// (the sorted index) is untouched.
func (r *Registry) ZeroPrefix(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			c.v.Store(0)
		}
	}
	for name, g := range r.gauges {
		if strings.HasPrefix(name, prefix) {
			g.Set(0)
		}
	}
	for name, h := range r.hists {
		if strings.HasPrefix(name, prefix) {
			for i := range h.counts {
				h.counts[i].Store(0)
			}
		}
	}
}
