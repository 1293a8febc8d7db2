package harness

import (
	"context"
	"fmt"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// ScalabilityRow is one core-count measurement.
type ScalabilityRow struct {
	Cores int
	// TPSlowdown, BRSlowdown and CamouflageSlowdown are geometric means
	// over cores of IPC(no shaping) / IPC(scheme): pure protection
	// overhead. TP divides time and BR divides bandwidth by the domain
	// count; Camouflage shapes per-core and does not.
	TPSlowdown         float64
	BRSlowdown         float64
	CamouflageSlowdown float64
}

// ScalabilityResult reproduces the paper's §II-B scalability argument:
// Temporal Partitioning gives each of N mutually distrusting domains 1/N
// of the schedule, so its overhead grows with the domain count, while
// Camouflage's shaping is per-core and independent of how many domains
// exist.
type ScalabilityResult struct {
	Rows []ScalabilityRow
}

// Scalability measures TP vs Camouflage protection overhead at increasing
// core counts (every core its own security domain), on a light workload
// mix so the unshaped substrate itself is not the bottleneck.
func Scalability(ctx context.Context, coreCounts []int, cycles sim.Cycle, seed uint64) (*ScalabilityResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	if len(coreCounts) == 0 {
		coreCounts = []int{4, 8, 16}
	}
	// Light benchmarks: the point is scheduler overhead, not bandwidth
	// saturation.
	light := []string{"h264ref", "gobmk", "hmmer", "sjeng"}

	res := &ScalabilityResult{}
	for _, n := range coreCounts {
		names := make([]string, n)
		for i := range names {
			names[i] = light[i%len(light)]
		}
		run := Run{Benchmarks: names, TraceSeed: seed + uint64(n)*31, Warmup: WarmupCycles, Cycles: cycles}
		measure := func(cfg core.Config) (Result, error) {
			r := run
			r.Config = cfg
			return r.Do(ctx)
		}

		base := core.DefaultConfig()
		base.Cores = n
		baseRS, err := measure(base)
		if err != nil {
			return nil, err
		}

		tpCfg := base
		tpCfg.Scheme = core.TP
		tpRS, err := measure(tpCfg)
		if err != nil {
			return nil, err
		}

		brCfg := base
		brCfg.Scheme = core.BR
		brRS, err := measure(brCfg)
		if err != nil {
			return nil, err
		}

		// Camouflage: per-core ReqC at each core's own distribution
		// (keep-rate with fake traffic), measured by a short unshaped
		// run.
		measured, err := Run{Config: base, Benchmarks: names, TraceSeed: run.TraceSeed, Cycles: cycles / 4, ReqHists: true}.Do(ctx)
		if err != nil {
			return nil, err
		}
		camCfg := base
		camCfg.Scheme = core.ReqC
		camCfg.PerCoreReqCfg = map[int]shaper.Config{}
		for i, h := range measured.ReqHists {
			camCfg.PerCoreReqCfg[i] = shaper.FromHistogram(h, 4*shaper.DefaultWindow, 0, true)
		}
		camRS, err := measure(camCfg)
		if err != nil {
			return nil, err
		}

		row := ScalabilityRow{Cores: n}
		var tpRatios, brRatios, camRatios []float64
		for i := 0; i < n; i++ {
			if tpRS.ipc(i) > 0 {
				tpRatios = append(tpRatios, baseRS.ipc(i)/tpRS.ipc(i))
			}
			if brRS.ipc(i) > 0 {
				brRatios = append(brRatios, baseRS.ipc(i)/brRS.ipc(i))
			}
			if camRS.ipc(i) > 0 {
				camRatios = append(camRatios, baseRS.ipc(i)/camRS.ipc(i))
			}
		}
		row.TPSlowdown = stats.GeoMean(tpRatios)
		row.BRSlowdown = stats.GeoMean(brRatios)
		row.CamouflageSlowdown = stats.GeoMean(camRatios)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *ScalabilityResult) Table() *Table {
	t := &Table{
		Title:   "Scalability (§II-B) — protection overhead vs number of mutually distrusting domains",
		Columns: []string{"cores/domains", "TP slowdown", "BWReserve slowdown", "Camouflage slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Cores), f2(row.TPSlowdown), f2(row.BRSlowdown), f2(row.CamouflageSlowdown))
	}
	return t
}
