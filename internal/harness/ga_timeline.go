package harness

import (
	"context"
	"fmt"

	"camouflage/internal/core"
	"camouflage/internal/ga"
	"camouflage/internal/mise"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
)

// onlineBDCGA runs the paper's online genetic algorithm (Figure 8) on a
// live BDC system: each generation begins with one highest-priority-mode
// (HPM) profiling epoch per program, then each child configuration is
// applied to the hardware bins and measured for one epoch; fitness is the
// MISE-estimated average slowdown. It returns the GA result and the bin
// configurations of the best child.
func onlineBDCGA(ctx context.Context, sys *core.System, population, generations int, rng *sim.RNG) (ga.Result, map[int]shaper.Config, map[int]shaper.Config, error) {
	// One slot per shaper, request shapers first: the genome holds one
	// credit segment per slot in this order, and each slot's best
	// configuration lands in its direction's map.
	reqCfgs := map[int]shaper.Config{}
	respCfgs := map[int]shaper.Config{}
	type slot struct {
		core int
		sh   *shaper.Shaper
		base shaper.Config
		best map[int]shaper.Config
	}
	var slots []slot
	for _, dir := range []struct {
		shapers []*shaper.Shaper
		best    map[int]shaper.Config
	}{{sys.ReqShapers, reqCfgs}, {sys.RespShapers, respCfgs}} {
		for i, sh := range dir.shapers {
			if sh != nil {
				slots = append(slots, slot{core: i, sh: sh, base: sh.Config(), best: dir.best})
			}
		}
	}
	// withCredits returns sh's active configuration carrying credits.
	withCredits := func(sh *shaper.Shaper, credits []int) shaper.Config {
		c := sh.Config()
		copy(c.Credits, credits)
		ensureCredit(c.Credits)
		return c
	}
	if len(slots) == 0 {
		return ga.Result{}, nil, nil, fmt.Errorf("harness: online GA needs at least one shaper")
	}
	binsPer := slots[0].base.Binning.N()

	cores := len(sys.Cores)
	meters := make([]mise.Meter, cores)
	hpm := make([]mise.Sample, cores)

	sampleEpoch := func(core int) mise.Sample {
		st := sys.CoreStats(core)
		meters[core].Begin(st.Cycles, st.MemStallCycles, st.Responses)
		_ = sys.RunContext(ctx, GAEpochCycles) // a canceled epoch no-ops; ctx is re-checked after ga.Run
		st = sys.CoreStats(core)
		return meters[core].End(st.Cycles, st.MemStallCycles, st.Responses)
	}

	gaCfg := ga.DefaultConfig(binsPer * len(slots))
	gaCfg.Population = population
	gaCfg.Generations = generations
	gaCfg.CreditMax = 32
	gaCfg.TotalMax = 64
	gaCfg.SegmentLen = binsPer
	var seed ga.Genome
	for _, s := range slots {
		for _, c := range s.base.Credits {
			seed = append(seed, c)
		}
	}
	gaCfg.Seeds = []ga.Genome{seed}

	// HPM profiling at the start of every generation (the P_i HPM blocks
	// of Figure 8): measure each program's service rate with top memory
	// priority, one epoch each. The base configurations are restored
	// first so the reference measurement does not inherit whatever bin
	// state the previous generation's last child left behind.
	gaCfg.OnGeneration = func(int) {
		for _, s := range slots {
			s.sh.Reconfigure(withCredits(s.sh, s.base.Credits))
		}
		for c := 0; c < cores; c++ {
			sys.Elevate(c, mise.HPMPriority, sys.Kernel.Now()+GAEpochCycles)
			hpm[c] = sampleEpoch(c)
		}
	}

	fitness := func(g ga.Genome) float64 {
		segs := ga.SplitSegments(g, binsPer)
		for i, s := range slots {
			s.sh.Reconfigure(withCredits(s.sh, segs[i]))
		}
		// One shared epoch measures all cores.
		before := make([]struct {
			cy, st sim.Cycle
			resp   uint64
		}, cores)
		for c := 0; c < cores; c++ {
			st := sys.CoreStats(c)
			before[c] = struct {
				cy, st sim.Cycle
				resp   uint64
			}{st.Cycles, st.MemStallCycles, st.Responses}
		}
		_ = sys.RunContext(ctx, GAEpochCycles)
		slowdowns := make([]float64, 0, cores)
		for c := 0; c < cores; c++ {
			st := sys.CoreStats(c)
			dc := st.Cycles - before[c].cy
			if dc == 0 {
				continue
			}
			shared := mise.Sample{
				Alpha:       float64(st.MemStallCycles-before[c].st) / float64(dc),
				ServiceRate: float64(st.Responses-before[c].resp) / float64(dc),
			}
			slowdowns = append(slowdowns, mise.Slowdown(hpm[c], shared))
		}
		return mise.AverageSlowdown(slowdowns)
	}

	res, err := ga.Run(gaCfg, fitness, rng)
	if err != nil {
		return ga.Result{}, nil, nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return ga.Result{}, nil, nil, fmt.Errorf("harness: online GA canceled: %w", cerr)
	}

	// Decode the best genome back into per-core configurations.
	segs := ga.SplitSegments(res.Best, binsPer)
	for i, s := range slots {
		s.best[s.core] = withCredits(s.sh, segs[i])
	}
	return res, reqCfgs, respCfgs, nil
}

// gaRefineBDC runs the online GA for a BDC workload and folds the best
// configurations back into cfg.
func gaRefineBDC(ctx context.Context, cfg *core.Config, adversary, victim string, seed uint64) error {
	sys, err := warmBDC(ctx, *cfg, adversary, victim, seed)
	if err != nil {
		return err
	}
	_, reqCfgs, respCfgs, err := onlineBDCGA(ctx, sys, 12, 8, sys.Kernel.RNG().Fork())
	if err != nil {
		return err
	}
	cfg.PerCoreReqCfg = reqCfgs
	cfg.PerCoreRespCfg = respCfgs
	return nil
}

// warmBDC builds w(adversary, victim) under cfg for the online GA and
// runs it through the warmup.
func warmBDC(ctx context.Context, cfg core.Config, adversary, victim string, seed uint64) (*core.System, error) {
	sys, _, err := Run{Config: cfg, Benchmarks: mix(adversary, victim), TraceSeed: seed + 5}.Build(ctx)
	if err != nil {
		return nil, err
	}
	return sys, sys.RunContext(ctx, WarmupCycles)
}

// GATimelineResult reproduces the Figure 8 operation report: the online
// GA's configuration phase on a live workload.
type GATimelineResult struct {
	Adversary string
	Victim    string
	// BestPerGeneration is the best MISE average slowdown seen in each
	// generation.
	BestPerGeneration []float64
	// Evaluations is the number of child configurations measured.
	Evaluations int
	// ConfigPhaseCycles is the total length of the configuration phase.
	ConfigPhaseCycles sim.Cycle
	// InitialSlowdown and FinalSlowdown bracket the optimization.
	InitialSlowdown float64
	FinalSlowdown   float64
}

// GATimeline runs the online GA on w(adversary, victim) under BDC and
// reports its convergence (Figure 8's CONFIG_PHASE).
func GATimeline(ctx context.Context, adversary, victim string, population, generations int, seed uint64) (*GATimelineResult, error) {
	cfg, err := buildBDCConfig(ctx, adversary, victim, false, DefaultRunCycles/2, seed)
	if err != nil {
		return nil, err
	}
	sys, err := warmBDC(ctx, cfg, adversary, victim, seed)
	if err != nil {
		return nil, err
	}
	startCycle := sys.Kernel.Now()
	res, _, _, err := onlineBDCGA(ctx, sys, population, generations, sys.Kernel.RNG().Fork())
	if err != nil {
		return nil, err
	}
	out := &GATimelineResult{
		Adversary:         adversary,
		Victim:            victim,
		BestPerGeneration: res.History,
		Evaluations:       res.Evaluations,
		ConfigPhaseCycles: sys.Kernel.Now() - startCycle,
	}
	if len(res.History) > 0 {
		out.InitialSlowdown = res.History[0]
		out.FinalSlowdown = res.BestFitness
	}
	return out, nil
}

// Table renders the result.
func (r *GATimelineResult) Table() *Table {
	t := &Table{
		Title:   "Figure 8 — online GA configuration phase, w(" + r.Adversary + ", " + r.Victim + ")",
		Columns: []string{"generation", "best avg slowdown"},
	}
	for i, v := range r.BestPerGeneration {
		t.AddRow(fmt.Sprintf("G%d", i+1), f3(v))
	}
	t.AddRow("config phase", fmt.Sprintf("%d cycles, %d evaluations", r.ConfigPhaseCycles, r.Evaluations))
	return t
}
