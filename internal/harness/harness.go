// Package harness reproduces the paper's evaluation: one runner per table
// and figure, each building the simulated system from package core,
// driving the workloads of §IV-A, and reporting the same rows or series
// the paper plots. The per-experiment index lives in DESIGN.md; measured
// results against the paper's are recorded in EXPERIMENTS.md.
package harness

import (
	"context"
	"fmt"
	"strings"

	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// DefaultRunCycles is the default measured-run length. It is long enough
// for hundreds of replenishment windows and thousands of memory requests
// per core, which stabilizes the IPC and distribution measurements.
const DefaultRunCycles sim.Cycle = 400_000

// WarmupCycles is discarded before measurement where warm caches matter.
const WarmupCycles sim.Cycle = 50_000

// AdversaryName labels the adversary slot in workload reports.
const AdversaryName = "ADVERSARY"

// Workload builds the paper's w(ADVERSARY, victim) mix: the adversary
// benchmark on core 0 and three copies of the victim benchmark on cores
// 1–3, each with an independent deterministic stream derived from seed.
func Workload(adversary, victim string, seed uint64) ([]trace.Source, error) {
	advP, err := trace.ProfileByName(adversary)
	if err != nil {
		return nil, err
	}
	vicP, err := trace.ProfileByName(victim)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	srcs := make([]trace.Source, 4)
	if srcs[0], err = trace.NewGenerator(advP, rng.Fork()); err != nil {
		return nil, err
	}
	for i := 1; i < 4; i++ {
		if srcs[i], err = trace.NewGenerator(vicP, rng.Fork()); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// SoloSource builds a single-benchmark source list for a 1-core system.
func SoloSource(name string, seed uint64) ([]trace.Source, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(p, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return []trace.Source{g}, nil
}

// runStats captures the post-warmup counters of one run.
type runStats struct {
	perCore []cpu.Stats
	cycles  sim.Cycle
}

// ipc returns core i's post-warmup work per cycle.
func (r runStats) ipc(i int) float64 {
	if r.cycles == 0 {
		return 0
	}
	return float64(r.perCore[i].Work) / float64(r.cycles)
}

// systemIPC sums per-core IPCs.
func (r runStats) systemIPC() float64 {
	var t float64
	for i := range r.perCore {
		t += r.ipc(i)
	}
	return t
}

// measureRun runs sys for warmup+cycles and returns counters accumulated
// after the warmup. Every measured run executes with the full runtime
// invariant-checker stack enabled (checks are strided, so the overhead
// is small); a supervised-run failure (invariant violation, panic,
// deadline) is propagated with whatever was measured up to that point.
func measureRun(ctx context.Context, sys *core.System, warmup, cycles sim.Cycle) (runStats, error) {
	if sys.Monitor == nil {
		sys.EnableChecks(check.Options{})
	}
	if b := obs.FromContext(ctx); b != nil {
		sys.EnableObs(b, obs.Label(ctx))
	}
	if fn := core.HeartbeatFuncFromContext(ctx); fn != nil {
		sys.SetHeartbeat(fn)
	}
	if err := sys.RunContext(ctx, warmup); err != nil {
		return runStats{}, fmt.Errorf("warmup: %w", err)
	}
	before := make([]cpu.Stats, len(sys.Cores))
	for i := range sys.Cores {
		before[i] = sys.CoreStats(i)
	}
	runErr := sys.RunContext(ctx, cycles)
	out := runStats{perCore: make([]cpu.Stats, len(sys.Cores)), cycles: cycles}
	for i := range sys.Cores {
		after := sys.CoreStats(i)
		out.perCore[i] = cpu.Stats{
			Cycles:            after.Cycles - before[i].Cycles,
			Work:              after.Work - before[i].Work,
			Refs:              after.Refs - before[i].Refs,
			MemStallCycles:    after.MemStallCycles - before[i].MemStallCycles,
			ShaperStallCycles: after.ShaperStallCycles - before[i].ShaperStallCycles,
			Responses:         after.Responses - before[i].Responses,
			FakeResponses:     after.FakeResponses - before[i].FakeResponses,
		}
	}
	return out, runErr
}

// soloIPC runs benchmark name alone on a 1-core copy of cfg under
// FR-FCFS and returns its unshared IPC — the denominator of the paper's
// slowdown metrics.
func soloIPC(ctx context.Context, cfg core.Config, name string, seed uint64, cycles sim.Cycle) (float64, error) {
	solo := cfg
	solo.Cores = 1
	solo.Scheme = core.NoShaping
	solo.ReqShaperCfg = nil
	solo.RespShaperCfg = nil
	solo.PerCoreReqCfg = nil
	solo.PerCoreRespCfg = nil
	srcs, err := SoloSource(name, seed)
	if err != nil {
		return 0, err
	}
	sys, err := core.NewSystem(solo, srcs)
	if err != nil {
		return 0, err
	}
	rs, err := measureRun(ctx, sys, WarmupCycles, cycles)
	if err != nil {
		return 0, err
	}
	return rs.ipc(0), nil
}

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Values carries the unrounded numbers a derived table is computed
	// from (Headline reads Figure 12's and Figure 13's). String and CSV
	// never render it; it travels with the table through the journal and
	// the worker transports, whose JSON round-trips a float64 exactly.
	Values []float64 `json:",omitempty"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-style comma-separated values (header
// row first, no title), for plotting pipelines.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				sb.WriteByte('"')
			} else {
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f4 formats a float with four decimals.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// Sparkline renders a count series as a one-line unicode bar chart, the
// closest text analogue of the paper's traffic-over-time figures.
func Sparkline(counts []int) string {
	if len(counts) == 0 {
		return ""
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat("▁", len(counts))
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, c := range counts {
		idx := c * (len(levels) - 1) / max
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
