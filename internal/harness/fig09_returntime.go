package harness

import (
	"context"
	"fmt"

	"camouflage/internal/attack"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// ReturnTimeResult reproduces Figure 9: the adversary's accumulated
// per-request response-time difference between running next to astar and
// next to mcf, under FR-FCFS (grows — the timing channel) and under
// Response Camouflage (flat — the channel closed).
type ReturnTimeResult struct {
	Adversary string
	// RequestIndex is the x axis (request number of each sample).
	RequestIndex []int
	// NoShaping and RespC are the accumulated response-time differences
	// (cycles) at each sampled request index.
	NoShaping []int64
	RespC     []int64
	// FinalNoShaping and FinalRespC are the last accumulated values.
	FinalNoShaping int64
	FinalRespC     int64
}

// ReturnTimeDifference measures Figure 9 for the given adversary
// benchmark: it runs w(adversary, astar) and w(adversary, mcf) under
// FR-FCFS and under RespC (both shaped to the same response distribution)
// and accumulates the adversary's per-request latency differences.
func ReturnTimeDifference(ctx context.Context, adversary string, cycles sim.Cycle, seed uint64) (*ReturnTimeResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}

	// probe runs w(adversary, victim), with RespC on the adversary core
	// when respCfg is set, and returns the adversary's observable
	// response-latency probe (request k paired with the k-th response it
	// receives, fakes indistinguishable) and its measured response
	// inter-arrival histogram. Each run carries its own obs label.
	probe := func(victim string, respCfg *shaper.Config) (*attack.ResponseProbe, *stats.Histogram, error) {
		cfg, scheme := seeded(4, seed), "frfcfs"
		if respCfg != nil {
			cfg, scheme = withRespC(cfg, *respCfg, 0), "respc"
		}
		ctx := obs.WithLabel(ctx, fmt.Sprintf("fig09/%s/%s", scheme, victim))
		res, err := Run{Config: cfg, Benchmarks: mix(adversary, victim), TraceSeed: seed + 5, Cycles: cycles, Probe: true, RespHist: true}.Do(ctx)
		if err != nil {
			return nil, nil, err
		}
		return res.Probe.AsResponseProbe(), res.RespHist, nil
	}

	// Unshaped runs: the baseline channel.
	probeAstar, _, err := probe("astar", nil)
	if err != nil {
		return nil, err
	}
	probeMcf, mcfHist, err := probe("mcf", nil)
	if err != nil {
		return nil, err
	}

	// RespC runs: both workloads shaped to the same target. Against a
	// latency-probing adversary the release schedule must be oblivious
	// to arrivals, so the target is constant response shaping at the
	// w(adversary, mcf) rate with fake responses — the configuration the
	// paper singles out as eliminating leakage generated by interference
	// in the DRAM (§III-B3). Distribution-mode RespC variants are
	// compared in the ablation benchmarks.
	target := respCTarget(mcfHist)
	probeAstarC, _, err := probe("astar", &target)
	if err != nil {
		return nil, err
	}
	probeMcfC, _, err := probe("mcf", &target)
	if err != nil {
		return nil, err
	}

	diffNo := attack.AccumulatedDifference(probeAstar, probeMcf)
	diffC := attack.AccumulatedDifference(probeAstarC, probeMcfC)

	res := &ReturnTimeResult{Adversary: adversary}
	n := len(diffNo)
	if len(diffC) < n {
		n = len(diffC)
	}
	const samples = 40
	step := n / samples
	if step < 1 {
		step = 1
	}
	for i := step - 1; i < n; i += step {
		res.RequestIndex = append(res.RequestIndex, i+1)
		res.NoShaping = append(res.NoShaping, diffNo[i])
		res.RespC = append(res.RespC, diffC[i])
	}
	if n > 0 {
		res.FinalNoShaping = diffNo[n-1]
		res.FinalRespC = diffC[n-1]
	}
	return res, nil
}

// respCTarget builds the Figure 9 response-shaper target from a measured
// response histogram: strictly periodic release at the histogram's mean
// rate, empty slots filled with fake responses.
func respCTarget(h *stats.Histogram) shaper.Config {
	window := 4 * shaper.DefaultWindow
	interval := sim.Cycle(h.MeanInterArrival())
	if interval < 1 {
		interval = shaper.DefaultWindow
	}
	return shaper.ConstantRate(stats.DefaultBinning(), interval, window, true)
}

// Table renders the final accumulated differences.
func (r *ReturnTimeResult) Table() *Table {
	t := &Table{
		Title:   "Figure 9 — adversary accumulated response-time difference, w(ADV,mcf) − w(ADV,astar)",
		Columns: []string{"scheme", "final accumulated diff (cycles)", "per-request mean (cycles)"},
	}
	n := len(r.RequestIndex)
	if n == 0 {
		return t
	}
	last := float64(r.RequestIndex[n-1])
	t.AddRow("FR-FCFS", fmt.Sprintf("%d", r.FinalNoShaping), f2(float64(r.FinalNoShaping)/last))
	t.AddRow("RespC", fmt.Sprintf("%d", r.FinalRespC), f2(float64(r.FinalRespC)/last))
	return t
}
