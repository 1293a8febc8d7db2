package harness

import (
	"context"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// RespCRow is one adversary's Figure 10 measurement for one victim
// direction.
type RespCRow struct {
	Adversary string
	// AdversarySlowdown is the adversary's IPC without shaping divided by
	// its IPC under RespC (values below 1 are speedups, as in Figure
	// 10(b) where the shaper requests higher priority).
	AdversarySlowdown float64
	// ThroughputSlowdown is the same ratio for whole-system throughput.
	ThroughputSlowdown float64
}

// RespCPerformanceResult reproduces Figure 10(a) or (b).
type RespCPerformanceResult struct {
	// Victim is the protected benchmark the adversary co-runs with
	// (astar for 10(a), mcf for 10(b)).
	Victim string
	// TargetVictim is the benchmark whose co-run response distribution
	// the shaper imposes (mcf for 10(a), astar for 10(b)).
	TargetVictim string
	Rows         []RespCRow
	// GeoMeanAdv and GeoMeanThroughput aggregate the rows.
	GeoMeanAdv        float64
	GeoMeanThroughput float64
}

// RespCPerformance measures Figure 10: for every adversary benchmark, run
// w(ADVERSARY, victim) with the adversary's responses shaped to the
// distribution it would see next to targetVictim, and report the
// adversary's and the system's slowdown relative to no shaping.
func RespCPerformance(ctx context.Context, victim, targetVictim string, cycles sim.Cycle, seed uint64) (*RespCPerformanceResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	res := &RespCPerformanceResult{Victim: victim, TargetVictim: targetVictim}
	// run measures w(adv, victim) under cfg, recording the adversary's
	// response inter-arrival histogram.
	run := func(adv, victim string, cfg core.Config) (Result, error) {
		return Run{Config: cfg, Benchmarks: mix(adv, victim), TraceSeed: seed + 5, Warmup: WarmupCycles, Cycles: cycles, RespHist: true}.Do(ctx)
	}
	unshaped := seeded(4, seed)
	var advRatios, tpRatios []float64
	for _, adv := range trace.BenchmarkNames() {
		// Measure the target response distribution from w(adv, target).
		measured, err := run(adv, targetVictim, unshaped)
		if err != nil {
			return nil, err
		}
		target := shaper.FromHistogram(measured.RespHist, 4*shaper.DefaultWindow, 0, true)

		// Baseline and shaped runs of w(adv, victim).
		base, err := run(adv, victim, unshaped)
		if err != nil {
			return nil, err
		}
		shaped, err := run(adv, victim, withRespC(unshaped, target, 0))
		if err != nil {
			return nil, err
		}

		row := RespCRow{Adversary: adv}
		if shaped.ipc(0) > 0 {
			row.AdversarySlowdown = base.ipc(0) / shaped.ipc(0)
		}
		if shaped.systemIPC() > 0 {
			row.ThroughputSlowdown = base.systemIPC() / shaped.systemIPC()
		}
		res.Rows = append(res.Rows, row)
		if row.AdversarySlowdown > 0 {
			advRatios = append(advRatios, row.AdversarySlowdown)
		}
		if row.ThroughputSlowdown > 0 {
			tpRatios = append(tpRatios, row.ThroughputSlowdown)
		}
	}
	res.GeoMeanAdv = stats.GeoMean(advRatios)
	res.GeoMeanThroughput = stats.GeoMean(tpRatios)
	return res, nil
}

// Table renders the result in the paper's bar-chart layout.
func (r *RespCPerformanceResult) Table() *Table {
	t := &Table{
		Title:   "Figure 10 — RespC on w(ADVERSARY, " + r.Victim + "), shaped to the w(ADVERSARY, " + r.TargetVictim + ") response distribution",
		Columns: []string{"adversary", "ADVERSARY slowdown", "overall throughput slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Adversary+"+"+r.Victim+"x3", f2(row.AdversarySlowdown), f2(row.ThroughputSlowdown))
	}
	t.AddRow("GEOMEAN", f2(r.GeoMeanAdv), f2(r.GeoMeanThroughput))
	return t
}
