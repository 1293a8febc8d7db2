package harness

import (
	"context"
	"fmt"

	"camouflage/internal/core"
	"camouflage/internal/mem"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// BDCRow is one adversary's Figure 13 comparison.
type BDCRow struct {
	Adversary string
	// TP, FS and BDC are the workload's average program slowdown
	// (mean over the four programs of IPC alone / IPC shared).
	TP  float64
	FS  float64
	BDC float64
}

// BDCComparisonResult reproduces Figure 13(a)/(b).
type BDCComparisonResult struct {
	Victim string
	Rows   []BDCRow
	// GeoMeanTP/FS/BDC aggregate the rows; the paper's headline speedups
	// are GeoMeanTP/GeoMeanBDC and GeoMeanFS/GeoMeanBDC.
	GeoMeanTP  float64
	GeoMeanFS  float64
	GeoMeanBDC float64
}

// BDCComparison measures Figure 13 for the given victim benchmark: every
// adversary co-scheduled with three victims under Temporal Partitioning,
// Fixed Service with bank partitioning, and Bi-directional Camouflage
// (request shapers on the protected cores, a response shaper on the
// adversary, configurations derived from the workload's own measured
// distributions as the GA's starting point; set useGA to run the online
// genetic algorithm of §IV-C on top).
func BDCComparison(ctx context.Context, victim string, useGA bool, cycles sim.Cycle, seed uint64) (*BDCComparisonResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	res := &BDCComparisonResult{Victim: victim}

	// Solo IPCs (slowdown denominators), cached per benchmark.
	solo := map[string]float64{}
	soloFor := func(name string) (float64, error) {
		if v, ok := solo[name]; ok {
			return v, nil
		}
		v, err := soloIPC(ctx, core.DefaultConfig(), name, seed+99, cycles)
		if err != nil {
			return 0, err
		}
		solo[name] = v
		return v, nil
	}

	var tps, fss, bdcs []float64
	for _, adv := range trace.BenchmarkNames() {
		row := BDCRow{Adversary: adv}

		names := []string{adv, victim, victim, victim}
		solos := make([]float64, len(names))
		for i, n := range names {
			sv, err := soloFor(n)
			if err != nil {
				return nil, err
			}
			solos[i] = sv
		}
		avg := func(scheme string, rs runStats) (float64, error) {
			return avgSlowdown(scheme, adv, names, solos, rs)
		}

		// Temporal Partitioning.
		tpCfg := core.DefaultConfig()
		tpCfg.Seed = seed
		tpCfg.Scheme = core.TP
		rs, err := runWorkload(ctx, tpCfg, adv, victim, cycles, seed)
		if err != nil {
			return nil, err
		}
		if row.TP, err = avg("TP", rs); err != nil {
			return nil, err
		}

		// Fixed Service with bank partitioning.
		fsCfg := core.DefaultConfig()
		fsCfg.Seed = seed
		fsCfg.Scheme = core.FS
		fsCfg.FSBankPartition = true
		rs, err = runWorkload(ctx, fsCfg, adv, victim, cycles, seed)
		if err != nil {
			return nil, err
		}
		if row.FS, err = avg("FS", rs); err != nil {
			return nil, err
		}

		// Bi-directional Camouflage.
		bdcCfg, err := buildBDCConfig(ctx, adv, victim, useGA, cycles, seed)
		if err != nil {
			return nil, err
		}
		rs, err = runWorkload(ctx, bdcCfg, adv, victim, cycles, seed)
		if err != nil {
			return nil, err
		}
		if row.BDC, err = avg("BDC", rs); err != nil {
			return nil, err
		}

		res.Rows = append(res.Rows, row)
		tps = append(tps, row.TP)
		fss = append(fss, row.FS)
		bdcs = append(bdcs, row.BDC)
	}
	res.GeoMeanTP = stats.GeoMean(tps)
	res.GeoMeanFS = stats.GeoMean(fss)
	res.GeoMeanBDC = stats.GeoMean(bdcs)
	return res, nil
}

// avgSlowdown is one Figure 13 workload's average program slowdown
// under scheme: the mean over its cores of solo IPC / shared IPC. A core
// with no shared IPC has no defined slowdown; it is an error naming the
// scheme, adversary and core, never a 0 that would drag the geomean and
// the headline down.
func avgSlowdown(scheme, adv string, names []string, solo []float64, rs runStats) (float64, error) {
	var sum float64
	for i, n := range names {
		ipc := rs.ipc(i)
		if ipc <= 0 {
			return 0, fmt.Errorf("fig13 %s: adversary %s: core %d (%s) has IPC %g, slowdown undefined", scheme, adv, i, n, ipc)
		}
		sum += solo[i] / ipc
	}
	return sum / float64(len(names)), nil
}

// runWorkload builds and measures one w(adversary, victim) system.
func runWorkload(ctx context.Context, cfg core.Config, adversary, victim string, cycles sim.Cycle, seed uint64) (runStats, error) {
	srcs, err := Workload(adversary, victim, seed+5)
	if err != nil {
		return runStats{}, err
	}
	sys, err := core.NewSystem(cfg, srcs)
	if err != nil {
		return runStats{}, err
	}
	return measureRun(ctx, sys, WarmupCycles, cycles)
}

// buildBDCConfig derives the BDC system configuration for w(adversary,
// victim): per-core request shapers for the protected victims and a
// response shaper for the adversary, with credits matching each core's own
// measured distribution (keeping the camouflaged distributions fixed at
// the workload's natural rates), optionally refined by the online GA.
func buildBDCConfig(ctx context.Context, adversary, victim string, useGA bool, cycles sim.Cycle, seed uint64) (core.Config, error) {
	window := 4 * shaper.DefaultWindow

	// Measurement run: unshaped.
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	srcs, err := Workload(adversary, victim, seed+5)
	if err != nil {
		return core.Config{}, err
	}
	sys, err := core.NewSystem(cfg, srcs)
	if err != nil {
		return core.Config{}, err
	}
	reqRecs := make([]*stats.InterArrivalRecorder, cfg.Cores)
	for i := range reqRecs {
		reqRecs[i] = stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
	}
	respRec := stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
	sys.ReqNet.AddTap(func(now sim.Cycle, req *mem.Request) {
		reqRecs[req.Core].Observe(now)
	})
	sys.RespNet.AddTap(func(now sim.Cycle, req *mem.Request) {
		if req.Core == 0 {
			respRec.Observe(now)
		}
	})
	if err := sys.RunContext(ctx, cycles/2); err != nil {
		return core.Config{}, err
	}

	bdc := core.DefaultConfig()
	bdc.Seed = seed
	bdc.Scheme = core.BDC
	bdc.PerCoreReqCfg = map[int]shaper.Config{}
	for i := 1; i < bdc.Cores; i++ {
		bdc.PerCoreReqCfg[i] = shaper.FromHistogram(reqRecs[i].Hist, window, 0, true)
	}
	bdc.PerCoreRespCfg = map[int]shaper.Config{
		0: shaper.FromHistogram(respRec.Hist, window, 0, true),
	}
	bdc.ReqShaperCores = []int{1, 2, 3}
	bdc.RespShaperCores = []int{0}

	if useGA {
		if err := gaRefineBDC(ctx, &bdc, adversary, victim, seed); err != nil {
			return core.Config{}, err
		}
	}
	return bdc, nil
}

// Table renders the result; its Values hold each row's TP, FS and BDC, in
// row order, for Headline.
func (r *BDCComparisonResult) Table() *Table {
	t := &Table{
		Title:   "Figure 13 — program average slowdown vs TP and FS (victim " + r.Victim + ")",
		Columns: []string{"workload", "TP", "FS+bank-part", "Camouflage"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Adversary+"+"+r.Victim+"x3", f2(row.TP), f2(row.FS), f2(row.BDC))
		t.Values = append(t.Values, row.TP, row.FS, row.BDC)
	}
	t.AddRow("GEOMEAN", f2(r.GeoMeanTP), f2(r.GeoMeanFS), f2(r.GeoMeanBDC))
	return t
}
