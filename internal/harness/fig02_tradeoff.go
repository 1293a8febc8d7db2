package harness

import (
	"context"

	"camouflage/internal/mi"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// TradeoffPoint is one (security, performance) point in Figure 2's space.
type TradeoffPoint struct {
	// Label names the scheme or configuration.
	Label string
	// MI is the mutual information between intrinsic and observed request
	// timing, in bits (lower = more secure).
	MI float64
	// RelPerf is IPC normalized to the unshaped run (higher = faster).
	RelPerf float64
}

// TradeoffSpaceResult reproduces Figure 2: the security/performance
// trade-off space, with CS as one extreme point, no-shaping as the other,
// and Camouflage configurations spanning the space between.
type TradeoffSpaceResult struct {
	Benchmark string
	Points    []TradeoffPoint
}

// TradeoffSpace sweeps Camouflage configurations for one protected
// benchmark from constant-rate (one active bin, maximum security) to
// generous multi-bin distributions (maximum performance), measuring MI and
// relative performance for each, alongside the CS and no-shaping anchors.
func TradeoffSpace(ctx context.Context, benchmark string, cycles sim.Cycle, seed uint64) (*TradeoffSpaceResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	binning := MIBinning()
	window := 4 * shaper.DefaultWindow

	// Unshaped anchor run: intrinsic sequence and baseline IPC.
	run := Run{Config: seeded(1, seed), Benchmarks: []string{benchmark}, TraceSeed: seed + 21, Warmup: WarmupCycles, Cycles: cycles, Bus: true}
	base, err := run.Do(ctx)
	if err != nil {
		return nil, err
	}
	intrinsic := base.Bus.InterArrivals()
	baseIPC := base.ipc(0)
	demand := float64(base.Bus.Count()) / float64(WarmupCycles+cycles) * float64(window)

	res := &TradeoffSpaceResult{Benchmark: benchmark}
	res.Points = append(res.Points, TradeoffPoint{
		Label:   "NoShaping",
		MI:      mi.SelfInformation(intrinsic, binning),
		RelPerf: 1,
	})

	// One shaped run per configuration point.
	type pt struct {
		label string
		cfg   shaper.Config
	}
	var pts []pt
	// CS anchor: strictly periodic at half demand with fakes.
	csInterval := window / sim.Cycle(maxInt(2, int(demand/2)))
	pts = append(pts, pt{"CS", shaper.ConstantRate(stats.DefaultBinning(), csInterval, window, true)})
	// Camouflage sweep: staircase budgets from half demand (tight,
	// secure) to 4x demand (loose, fast), all with fake traffic.
	for _, scale := range []float64{0.5, 0.75, 1.0, 1.5, 2.0, 4.0} {
		budget := int(demand * scale)
		if budget < 2 {
			budget = 2
		}
		pts = append(pts, pt{
			label: "Camouflage x" + f2(scale),
			cfg:   scaledStaircase(budget, window),
		})
	}
	for i := range pts {
		pts[i].cfg.GenerateFake = true
	}

	for _, p := range pts {
		shaped := run
		shaped.Config = withReqC(run.Config, p.cfg)
		shaped.Bus, shaped.Shaped = false, true
		r, err := shaped.Do(ctx)
		if err != nil {
			return nil, err
		}
		point := TradeoffPoint{
			Label: p.label,
			MI:    mi.SequenceMI(intrinsic, r.ShaperOut.Raw, binning),
		}
		if baseIPC > 0 {
			point.RelPerf = r.ipc(0) / baseIPC
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table renders the result.
func (r *TradeoffSpaceResult) Table() *Table {
	t := &Table{
		Title:   "Figure 2 — security (MI, bits) vs performance (relative IPC) trade-off space, " + r.Benchmark,
		Columns: []string{"configuration", "MI", "relative performance"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, f4(p.MI), f3(p.RelPerf))
	}
	return t
}
