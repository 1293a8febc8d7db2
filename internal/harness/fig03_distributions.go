package harness

import (
	"context"
	"strconv"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// ShapedDistributionsResult reproduces Figure 3: the conceptual difference
// between the observed inter-arrival distributions under a constant-rate
// shaper (all mass in one bin), Temporal Partitioning (mass pushed into
// high-latency bins by the turn structure) and Camouflage (a chosen
// flexible distribution).
type ShapedDistributionsResult struct {
	Benchmark string
	Binning   stats.Binning
	// Intrinsic, CS, TP and Camouflage are observed PMFs over Binning.
	Intrinsic  []float64
	CS         []float64
	TP         []float64
	Camouflage []float64
}

// ShapedDistributions measures the observed service inter-arrival
// distributions of one protected benchmark (co-run with three astar
// copies) under each scheme.
func ShapedDistributions(ctx context.Context, benchmark string, cycles sim.Cycle, seed uint64) (*ShapedDistributionsResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	binning := stats.DefaultBinning()
	window := 4 * shaper.DefaultWindow
	res := &ShapedDistributionsResult{Benchmark: benchmark, Binning: binning}

	// The observation point is the response channel: what rate the
	// benchmark is actually served at, which is where TP's turn structure
	// and CS's slotting show up.
	run := Run{Benchmarks: mix(benchmark, "astar"), TraceSeed: seed + 31, Cycles: cycles, RespHist: true}
	measure := func(cfg core.Config) ([]float64, error) {
		r := run
		r.Config = cfg
		out, err := r.Do(ctx)
		if err != nil {
			return nil, err
		}
		return out.RespHist.PMF(), nil
	}

	// The unshaped run also counts the benchmark's bus requests: its
	// demand sizes the CS slot so it genuinely shapes.
	base := seeded(4, seed)
	unshapedRun := run
	unshapedRun.Config, unshapedRun.Bus = base, true
	unshaped, err := unshapedRun.Do(ctx)
	if err != nil {
		return nil, err
	}
	res.Intrinsic = unshaped.RespHist.PMF()
	demand := window / 256 // a conservative default when measurement fails
	if count := unshaped.Bus.Count(); count > 0 {
		if d := sim.Cycle(count) * window / cycles; d >= 2 {
			demand = d
		}
	}

	cs := withReqC(base, shaper.ConstantRate(binning, window/demand, window, true), 0)
	cs.Scheme = core.CS
	if res.CS, err = measure(cs); err != nil {
		return nil, err
	}

	tp := base
	tp.Scheme = core.TP
	if res.TP, err = measure(tp); err != nil {
		return nil, err
	}

	if res.Camouflage, err = measure(withReqC(base, DesiredStaircase(), 0)); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the four PMFs.
func (r *ShapedDistributionsResult) Table() *Table {
	cols := []string{"scheme"}
	for i := 0; i < r.Binning.N(); i++ {
		cols = append(cols, strconv.FormatUint(uint64(r.Binning.Lower(i)), 10))
	}
	t := &Table{
		Title:   "Figure 3 — observed service inter-arrival PMFs by scheme (" + r.Benchmark + "); columns are bin lower edges in cycles",
		Columns: cols,
	}
	add := func(name string, pmf []float64) {
		row := []string{name}
		for _, p := range pmf {
			row = append(row, f2(p))
		}
		t.AddRow(row...)
	}
	add("intrinsic", r.Intrinsic)
	add("CS", r.CS)
	add("TP", r.TP)
	add("Camouflage", r.Camouflage)
	return t
}
