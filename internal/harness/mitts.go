package harness

import (
	"context"
	"fmt"

	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// MITTSFairnessResult exercises the shaper hardware in its original MITTS
// role (§V): distribution-based bandwidth shaping for quality of service
// rather than security. Two bandwidth hogs run against two light tenants,
// unshaped and then with identical per-core MITTS-style distributions
// (PolicyAtMost, no fake traffic). The QoS metric is the worst tenant
// slowdown: shaping caps the hogs at their share, protecting the tenants.
// Jain's index over all slowdowns is reported for completeness.
type MITTSFairnessResult struct {
	Workload []string
	// SlowdownsUnshaped and SlowdownsShaped are per-core IPC(alone) /
	// IPC(shared).
	SlowdownsUnshaped []float64
	SlowdownsShaped   []float64
	// WorstTenantUnshaped and WorstTenantShaped are the maximum slowdown
	// among the light tenants (cores 2-3) in each configuration.
	WorstTenantUnshaped float64
	WorstTenantShaped   float64
	// FairnessUnshaped and FairnessShaped are Jain indices (1 = fair).
	FairnessUnshaped float64
	FairnessShaped   float64
}

// MITTSFairness runs the QoS experiment: two bandwidth hogs (libqt)
// against two light tenants (astar), with every core shaped to the same
// equal-share distribution.
func MITTSFairness(ctx context.Context, cycles sim.Cycle, seed uint64) (*MITTSFairnessResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	names := []string{"libqt", "libqt", "astar", "astar"}
	res := &MITTSFairnessResult{Workload: names}

	// Solo IPCs: each benchmark alone on one core under FR-FCFS.
	solo := map[string]float64{}
	for _, n := range names {
		if _, ok := solo[n]; ok {
			continue
		}
		r, err := soloRun(n, seed+71, cycles).Do(ctx)
		if err != nil {
			return nil, err
		}
		solo[n] = r.ipc(0)
	}

	measure := func(shaped bool) ([]float64, error) {
		cfg := seeded(4, seed)
		if shaped {
			cfg = withReqC(cfg, mittsEqualShare())
		}
		r, err := Run{Config: cfg, Benchmarks: names, TraceSeed: seed + 71, Warmup: WarmupCycles, Cycles: cycles}.Do(ctx)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(names))
		for i, n := range names {
			if ipc := r.ipc(i); ipc > 0 {
				out[i] = solo[n] / ipc
			}
		}
		return out, nil
	}

	var err error
	if res.SlowdownsUnshaped, err = measure(false); err != nil {
		return nil, err
	}
	if res.SlowdownsShaped, err = measure(true); err != nil {
		return nil, err
	}
	res.FairnessUnshaped = stats.JainFairness(res.SlowdownsUnshaped)
	res.FairnessShaped = stats.JainFairness(res.SlowdownsShaped)
	for i := 2; i < 4; i++ {
		if res.SlowdownsUnshaped[i] > res.WorstTenantUnshaped {
			res.WorstTenantUnshaped = res.SlowdownsUnshaped[i]
		}
		if res.SlowdownsShaped[i] > res.WorstTenantShaped {
			res.WorstTenantShaped = res.SlowdownsShaped[i]
		}
	}
	return res, nil
}

// mittsEqualShare returns the per-core equal-bandwidth-share MITTS
// configuration: every core gets the same burst-friendly distribution
// summing to a quarter of the channel's practical bandwidth, enforced
// with the MITTS at-most policy and no fake traffic (fairness, not
// camouflage).
func mittsEqualShare() shaper.Config {
	b := stats.DefaultBinning()
	window := 4 * shaper.DefaultWindow
	// The channel sustains roughly one transaction per 25 cycles under
	// mixed traffic; a quarter share is ~41 per 4096-cycle window,
	// spread with a decreasing profile.
	credits := []int{12, 9, 7, 5, 3, 2, 1, 1, 1, 0}
	return shaper.Config{
		Binning:      b,
		Credits:      credits,
		Window:       window,
		GenerateFake: false,
		Policy:       shaper.PolicyAtMost,
	}
}

// Table renders the result.
func (r *MITTSFairnessResult) Table() *Table {
	t := &Table{
		Title:   "MITTS mode (§V) — distribution-based bandwidth shaping for fairness",
		Columns: []string{"core", "workload", "slowdown unshaped", "slowdown MITTS"},
	}
	for i, n := range r.Workload {
		t.AddRow(fmt.Sprintf("%d", i), n, f2(r.SlowdownsUnshaped[i]), f2(r.SlowdownsShaped[i]))
	}
	t.AddRow("worst tenant", "", f2(r.WorstTenantUnshaped), f2(r.WorstTenantShaped))
	t.AddRow("Jain", "", f3(r.FairnessUnshaped), f3(r.FairnessShaped))
	return t
}
