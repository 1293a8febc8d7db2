package harness

import (
	"context"
	"fmt"

	"camouflage/internal/mi"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// EpochRateRow is one scheme's row in the related-work rate-shaping
// comparison.
type EpochRateRow struct {
	Scheme string
	// IPC is the protected benchmark's solo throughput.
	IPC float64
	// MI is the measured mutual information against the intrinsic
	// sequence, in bits.
	MI float64
	// LeakBoundBits is the analytic leakage bound where one exists
	// (epoch switching leaks <= epochs x log2(rates); fixed-rate CS and
	// fully-fake Camouflage leak 0 by construction), else -1.
	LeakBoundBits float64
}

// EpochRateResult compares the constant-rate shaper (Ascend), the
// epoch-switched rate set (Fletcher et al., the paper's reference [14])
// and Camouflage's distribution shaping on the same benchmark — the
// related-work trade-off discussion of §II-B/§V quantified.
type EpochRateResult struct {
	Benchmark string
	Rows      []EpochRateRow
}

// EpochRateComparison runs benchmark solo under the three rate-shaping
// designs at comparable budgets and reports throughput, measured MI and
// the analytic leakage bound.
func EpochRateComparison(ctx context.Context, benchmark string, cycles sim.Cycle, seed uint64) (*EpochRateResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	binning := MIBinning()
	window := 4 * shaper.DefaultWindow

	// Baseline: intrinsic sequence + demand.
	run := Run{Config: seeded(1, seed), Benchmarks: []string{benchmark}, TraceSeed: seed + 41, Warmup: WarmupCycles, Cycles: cycles, Bus: true}
	base, err := run.Do(ctx)
	if err != nil {
		return nil, err
	}
	intrinsic := base.Bus.InterArrivals()
	demand := float64(base.Bus.Count()) / float64(WarmupCycles+cycles) * float64(window)
	if demand < 2 {
		demand = 2
	}

	res := &EpochRateResult{Benchmark: benchmark}
	res.Rows = append(res.Rows, EpochRateRow{
		Scheme:        "NoShaping",
		IPC:           base.ipc(0),
		MI:            mi.SelfInformation(intrinsic, binning),
		LeakBoundBits: -1,
	})

	runShaped := func(name string, shCfg shaper.Config, bound func(st shaper.Stats) float64) error {
		shaped := run
		shaped.Config = withReqC(run.Config, shCfg)
		shaped.Bus, shaped.Shaped = false, true
		r, err := shaped.Do(ctx)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, EpochRateRow{
			Scheme:        name,
			IPC:           r.ipc(0),
			MI:            mi.SequenceMI(intrinsic, r.ShaperOut.Raw, binning),
			LeakBoundBits: bound(r.ShaperStats),
		})
		return nil
	}

	// CS at the mean demand rate: zero leakage by construction.
	interval := sim.Cycle(float64(window) / demand)
	if interval < 1 {
		interval = 1
	}
	cs := shaper.ConstantRate(stats.DefaultBinning(), interval, window, true)
	if err := runShaped("CS (fixed rate)", cs, func(shaper.Stats) float64 { return 0 }); err != nil {
		return nil, err
	}

	// Fletcher et al.: four allowed rates around the demand, epoch = 8
	// windows; leakage bound = epochs x log2(4) = 2 bits per epoch.
	rates := []sim.Cycle{interval / 4, interval / 2, interval, interval * 4}
	for i, r := range rates {
		if r < 1 {
			rates[i] = 1
		}
	}
	epoch := 8 * window
	er := shaper.EpochRateSet(stats.DefaultBinning(), rates, epoch, window, true)
	if err := runShaped("EpochRate (Fletcher)", er, func(st shaper.Stats) float64 {
		return float64(st.Epochs) * 2 // log2(4 rates)
	}); err != nil {
		return nil, err
	}

	// Camouflage: demand-shaped distribution with fakes.
	cam := scaledStaircase(int(demand*1.2), window)
	cam.GenerateFake = true
	if err := runShaped("Camouflage (ReqC)", cam, func(shaper.Stats) float64 { return 0 }); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the result.
func (r *EpochRateResult) Table() *Table {
	t := &Table{
		Title:   "Rate shaping designs compared (CS / Fletcher epoch rates / Camouflage), " + r.Benchmark,
		Columns: []string{"scheme", "IPC", "measured MI (bits)", "analytic leak bound (bits)"},
	}
	for _, row := range r.Rows {
		bound := "-"
		if row.LeakBoundBits >= 0 {
			bound = fmt.Sprintf("%.0f", row.LeakBoundBits)
		}
		t.AddRow(row.Scheme, f3(row.IPC), f4(row.MI), bound)
	}
	return t
}
