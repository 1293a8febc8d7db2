package harness

import (
	"context"

	"camouflage/internal/ga"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// BandwidthInterval returns the request interval in cycles corresponding
// to bytesPerSec at the paper's 2.4 GHz clock with 64-byte lines: the
// Figure 12 budget of 1 GB/s works out to one request per ~154 cycles.
func BandwidthInterval(bytesPerSec float64) sim.Cycle {
	const clockHz = 2.4e9
	const lineBytes = 64
	interval := clockHz * lineBytes / bytesPerSec
	if interval < 1 {
		interval = 1
	}
	return sim.Cycle(interval)
}

// SpeedupRow is one benchmark's Figure 12 result.
type SpeedupRow struct {
	Name string
	// IPCNoShape, IPCConstant and IPCCamouflage are the benchmark's solo
	// throughputs unshaped, under the constant-rate limiter and under
	// ReqC at the same average bandwidth.
	IPCNoShape    float64
	IPCConstant   float64
	IPCCamouflage float64
	// Speedup is IPCCamouflage / IPCConstant (the figure's bars).
	Speedup float64
}

// ReqCSpeedupResult reproduces Figure 12: ReqC vs a static rate limiter at
// the same 1 GB/s average bandwidth.
type ReqCSpeedupResult struct {
	Interval sim.Cycle
	Rows     []SpeedupRow
	GeoMean  float64
}

// ReqCSpeedup measures each benchmark solo under (a) a constant-rate
// shaper and (b) ReqC configured from the benchmark's measured intrinsic
// distribution scaled to the identical credit budget, and reports the
// speedups (Figure 12).
func ReqCSpeedup(ctx context.Context, cycles sim.Cycle, seed uint64) (*ReqCSpeedupResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	interval := BandwidthInterval(1e9)
	window := 4 * sim.Cycle(1024)
	budget := int(window / interval)

	res := &ReqCSpeedupResult{Interval: interval}
	var speedups []float64
	for _, name := range trace.BenchmarkNames() {
		// Pass 1: unshaped solo run measuring the intrinsic request
		// distribution on the bus and the unshaped IPC.
		run := Run{Config: seeded(1, seed), Benchmarks: []string{name}, TraceSeed: seed + 13, Warmup: WarmupCycles, Cycles: cycles}
		unshaped := run
		unshaped.Bus = true
		base, err := unshaped.Do(ctx)
		if err != nil {
			return nil, err
		}

		hist := stats.NewHistogram(stats.DefaultBinning())
		for _, dt := range base.Bus.InterArrivals() {
			hist.Add(dt)
		}

		// shapedIPC runs the benchmark under ReqC with sc.
		shapedIPC := func(sc shaper.Config) (float64, error) {
			r := run
			r.Config = withReqC(run.Config, sc)
			res, err := r.Do(ctx)
			if err != nil {
				return 0, err
			}
			return res.ipc(0), nil
		}

		// Pass 2: constant-rate limiter at the bandwidth budget (no fake
		// traffic: this figure compares shaping flexibility, not
		// camouflage overhead).
		ipcCS, err := shapedIPC(shaper.ConstantRate(stats.DefaultBinning(), interval, window, false))
		if err != nil {
			return nil, err
		}

		// Pass 3: ReqC with a GA-optimized distribution at the same
		// per-window credit budget (the paper configures Camouflage's
		// bins with its genetic algorithm, §IV-C). The measured
		// intrinsic shape seeds the search, as a genome and as a
		// fake-free config whose credits follow it.
		opts := DefaultGAOptions(budget)
		opts.Window = window
		opts.Seeds = []ga.Genome{histGenome(hist, budget), shaper.FromHistogram(hist, window, budget, false).Credits}
		camCfg, err := gaOptimizeSoloReqC(ctx, run, opts)
		if err != nil {
			return nil, err
		}
		ipcCam, err := shapedIPC(camCfg)
		if err != nil {
			return nil, err
		}

		row := SpeedupRow{
			Name:          name,
			IPCNoShape:    base.ipc(0),
			IPCConstant:   ipcCS,
			IPCCamouflage: ipcCam,
		}
		if ipcCS > 0 {
			row.Speedup = ipcCam / ipcCS
			speedups = append(speedups, row.Speedup)
		}
		res.Rows = append(res.Rows, row)
	}
	res.GeoMean = stats.GeoMean(speedups)
	return res, nil
}

// Table renders the result; its Values hold GeoMean for Headline.
func (r *ReqCSpeedupResult) Table() *Table {
	t := &Table{
		Title:   "Figure 12 — ReqC speedup over a static rate limiter at 1 GB/s",
		Columns: []string{"app", "ipc-noshape", "ipc-constant", "ipc-reqc", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, f3(row.IPCNoShape), f3(row.IPCConstant), f3(row.IPCCamouflage), f2(row.Speedup))
	}
	t.AddRow("GEOMEAN", "", "", "", f2(r.GeoMean))
	t.Values = []float64{r.GeoMean}
	return t
}
