package harness

import (
	"context"
	"fmt"

	"camouflage/internal/ga"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// GAEpochCycles is the per-child evaluation length the paper uses
// (20 000 cycles per configuration measurement).
const GAEpochCycles sim.Cycle = 20_000

// GAOptions tunes the online optimization harness.
type GAOptions struct {
	Population  int
	Generations int
	// TotalMax bounds each shaper's per-window credits (the bandwidth
	// budget).
	TotalMax int
	// Window is the shaper replenishment window for optimized configs.
	Window sim.Cycle
	// GenerateFake applies to the optimized configurations.
	GenerateFake bool
	// Seeds optionally pre-load the initial population.
	Seeds []ga.Genome
}

// DefaultGAOptions mirrors the paper's GA shape (≈20 children, ≈20
// generations).
func DefaultGAOptions(totalMax int) GAOptions {
	return GAOptions{
		Population:  16,
		Generations: 12,
		TotalMax:    totalMax,
		Window:      4 * shaper.DefaultWindow,
	}
}

// gaOptimizeSoloReqC searches request-shaper bin configurations for
// run's single benchmark running alone, maximizing its measured IPC at a
// fixed per-window credit budget — the configuration step behind Figure
// 12. It returns the best configuration found.
func gaOptimizeSoloReqC(ctx context.Context, run Run, opts GAOptions) (shaper.Config, error) {
	start := DefaultShaperCfg(opts)
	run.Config = withReqC(run.Config, start)
	sys, _, err := run.Build(ctx)
	if err != nil {
		return shaper.Config{}, err
	}
	if err := sys.RunContext(ctx, WarmupCycles); err != nil {
		return shaper.Config{}, err
	}

	n := start.Binning.N()
	gaCfg := ga.DefaultConfig(n)
	gaCfg.Population = opts.Population
	gaCfg.Generations = opts.Generations
	gaCfg.CreditMax = opts.TotalMax
	gaCfg.TotalMax = opts.TotalMax
	gaCfg.SegmentLen = n
	gaCfg.Seeds = opts.Seeds

	fitness := func(g ga.Genome) float64 {
		c := start.Clone()
		copy(c.Credits, g)
		ensureCredit(c.Credits)
		sys.ReqShapers[0].Reconfigure(c)
		before := sys.CoreStats(0)
		_ = sys.RunContext(ctx, GAEpochCycles) // a canceled epoch no-ops; ctx is re-checked after ga.Run
		after := sys.CoreStats(0)
		dw := float64(after.Work - before.Work)
		return -dw / float64(GAEpochCycles) // minimize negative IPC
	}
	res, err := ga.Run(gaCfg, fitness, sys.Kernel.RNG().Fork())
	if err != nil {
		return shaper.Config{}, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return shaper.Config{}, fmt.Errorf("harness: GA optimization canceled: %w", cerr)
	}
	best := start.Clone()
	copy(best.Credits, res.Best)
	ensureCredit(best.Credits)
	return best, nil
}

// DefaultShaperCfg builds an all-purpose starting configuration for the GA
// with opts' window and budget: credits spread evenly across bins.
func DefaultShaperCfg(opts GAOptions) shaper.Config {
	b := stats.DefaultBinning()
	credits := make([]int, b.N())
	total := opts.TotalMax
	if total <= 0 {
		total = b.N()
	}
	for i := range credits {
		credits[i] = total / b.N()
	}
	credits[0] += total - (total/b.N())*b.N()
	ensureCredit(credits)
	w := opts.Window
	if w == 0 {
		w = 4 * shaper.DefaultWindow
	}
	return shaper.Config{
		Binning:      b,
		Credits:      credits,
		Window:       w,
		GenerateFake: opts.GenerateFake,
		Policy:       shaper.PolicyExact,
	}
}

// ensureCredit guarantees at least one credit so a shaper cannot deadlock
// its core.
func ensureCredit(credits []int) {
	for _, c := range credits {
		if c > 0 {
			return
		}
	}
	credits[len(credits)-1] = 1
}

// histGenome converts a measured histogram into a GA seed genome at the
// given budget.
func histGenome(hist interface{ PMF() []float64 }, budget int) ga.Genome {
	pmf := hist.PMF()
	g := make(ga.Genome, len(pmf))
	for i, p := range pmf {
		g[i] = int(p*float64(budget) + 0.5)
	}
	return g
}
