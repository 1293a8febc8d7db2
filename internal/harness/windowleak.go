package harness

import (
	"context"
	"fmt"

	"camouflage/internal/mi"
	"camouflage/internal/sim"
)

// WindowLeakRow is one (window, randomization) measurement.
type WindowLeakRow struct {
	Window     sim.Cycle
	Randomized bool
	// MI is the fine-grained mutual information between the protected
	// stream's intrinsic and shaped timing.
	MI float64
	// IPC is the protected benchmark's throughput under that config.
	IPC float64
}

// WindowLeakResult quantifies §IV-B4: short-term leakage within a
// replenishment window shrinks with the window size and with within-bin
// release randomization, at a performance cost.
type WindowLeakResult struct {
	Benchmark string
	Rows      []WindowLeakRow
}

// WithinWindowLeakage sweeps the replenishment window and the §IV-B4
// randomization knob for a throttling-tight ReqC configuration (no fake
// traffic, so the within-window release pattern is what leaks).
func WithinWindowLeakage(ctx context.Context, benchmark string, windows []sim.Cycle, cycles sim.Cycle, seed uint64) (*WindowLeakResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	if len(windows) == 0 {
		windows = []sim.Cycle{512, 1024, 4096, 16384}
	}
	binning := MIBinning()

	// Intrinsic reference.
	run := Run{Config: seeded(1, seed), Benchmarks: []string{benchmark}, TraceSeed: seed + 53, Cycles: cycles}
	unshaped := run
	unshaped.Bus = true
	base, err := unshaped.Do(ctx)
	if err != nil {
		return nil, err
	}
	intrinsic := base.Bus.InterArrivals()
	demandPerCycle := float64(base.Bus.Count()) / float64(cycles)

	res := &WindowLeakResult{Benchmark: benchmark}
	for _, w := range windows {
		budget := int(demandPerCycle * float64(w) * 0.6)
		if budget < 2 {
			budget = 2
		}
		for _, randomized := range []bool{false, true} {
			cfg := scaledStaircase(budget, w)
			cfg.GenerateFake = false
			cfg.RandomizeWithinBin = randomized

			shaped := run
			shaped.Config = withReqC(run.Config, cfg)
			shaped.Shaped = true
			r, err := shaped.Do(ctx)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, WindowLeakRow{
				Window:     w,
				Randomized: randomized,
				MI:         mi.SequenceMI(intrinsic, r.ShaperOut.Raw, binning),
				IPC:        r.ipc(0),
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *WindowLeakResult) Table() *Table {
	t := &Table{
		Title:   "§IV-B4 — within-window leakage vs replenishment window and randomization, " + r.Benchmark,
		Columns: []string{"window", "randomized", "MI (bits)", "IPC"},
	}
	for _, row := range r.Rows {
		rand := "no"
		if row.Randomized {
			rand = "yes"
		}
		t.AddRow(fmt.Sprintf("%d", row.Window), rand, f4(row.MI), f3(row.IPC))
	}
	return t
}
