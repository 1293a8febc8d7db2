// Package obs is the simulator-wide observability layer: a lock-cheap
// metrics registry of named instruments (counters, gauges, cycle
// histograms), a request-lifecycle tracer that stamps every memory
// transaction at each hop of the pipeline and emits Chrome trace_event
// JSON plus a JSONL span log, and live introspection (an opt-in HTTP
// endpoint serving expvar, pprof, a /metrics text dump and a /jobs JSON
// view, plus a periodic one-line progress report).
//
// The layer is designed to cost nothing when off and almost nothing when
// on:
//
//   - Every instrument method is nil-safe: a nil *Counter, *Gauge,
//     *CycleHist, *Tracer or *Registry no-ops, so instrumented components
//     pay one predictable branch when observability is disabled.
//   - Counters, gauges and histogram bins are atomics, so the HTTP
//     scraper never takes a lock against the simulation loop.
//   - Pull-style gauges (GaugeFunc) read live simulator state, which is
//     single-threaded; they are therefore evaluated only by their owning
//     Scope's Publish, called from the simulation goroutine at
//     supervision-stride boundaries. The scrape path reads the last
//     published atomic values and never touches simulator state.
//
// Instrument naming follows `<component>.<instance>.<metric>`
// (e.g. "shaper.req.1.queue_depth", "dram.0.bank.3.busy_cycles"); see
// DESIGN.md §Observability for the full scheme.
package obs

import (
	"context"
	"sync"

	"camouflage/internal/sim"
)

// Bundle carries the observability handles one run threads through its
// call tree: the metrics registry, the lifecycle tracer, and the fleet
// telemetry plane (time-series history, SLO alert monitor). Any field
// may be nil; a nil *Bundle disables the whole layer.
type Bundle struct {
	Registry *Registry
	Tracer   *Tracer
	History  *History
	Alerts   *SLOMonitor

	mu    sync.Mutex // serializes GridSample across systems
	clock Timeline
}

// GridSample is the supervision-grid hook: the core loop calls it right
// after publishing pull gauges on each grid point, from the simulation
// goroutine, so history capture and SLO evaluation see identical
// (cycle, value) sequences across same-seed runs. Every system sharing
// the bundle samples on one Timeline, so a job that runs several still
// records in cycle order. Nil-safe and free when neither a history
// store nor a monitor is installed.
func (b *Bundle) GridSample(cycle sim.Cycle) {
	if b == nil || (b.History == nil && b.Alerts == nil) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	at := b.clock.At(cycle)
	b.History.Capture(b.Registry, at)
	b.Alerts.Check(b.Registry, at)
}

// Timeline maps the cycles of successive systems onto one
// non-decreasing cycle: a cycle behind the last comes from the next
// system, whose clock restarted at 0, and continues from the last.
type Timeline struct {
	// last is the current system's last cycle; base sums the last
	// cycles of the systems before it.
	last, base sim.Cycle
}

// At returns cycle's place on the timeline and records it.
func (t *Timeline) At(cycle sim.Cycle) sim.Cycle {
	if cycle < t.last {
		t.base += t.last
	}
	t.last = cycle
	return t.base + cycle
}

type ctxKey struct{}

// NewContext returns ctx carrying b. Harness experiments receive the
// bundle this way so systems built deep inside an experiment can be
// instrumented without threading a parameter through every signature.
func NewContext(ctx context.Context, b *Bundle) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext returns the bundle carried by ctx, or nil.
func FromContext(ctx context.Context) *Bundle {
	b, _ := ctx.Value(ctxKey{}).(*Bundle)
	return b
}

type labelKey struct{}

// WithLabel returns ctx carrying a run label. Experiments that build
// several systems set a distinct label per system so their trace spans
// and metrics are distinguishable.
func WithLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, labelKey{}, label)
}

// Label returns the run label carried by ctx, or "run".
func Label(ctx context.Context) string {
	if l, ok := ctx.Value(labelKey{}).(string); ok && l != "" {
		return l
	}
	return "run"
}
