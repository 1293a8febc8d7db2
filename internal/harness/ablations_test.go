package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"camouflage/internal/attack"
	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// ablationCycles is each IPC arm's measured span, after soloRun's warmup.
const ablationCycles sim.Cycle = 100_000

// ablationArm is one setting of an ablation, measured at a seed.
type ablationArm struct {
	label   string
	measure func(ctx context.Context, seed uint64) (float64, error)
}

// soloIPCArm measures bench's IPC alone on one core, trace and system
// seeded by the seed, with edit applied to the configuration.
func soloIPCArm(label, bench string, edit func(core.Config) core.Config) ablationArm {
	return ablationArm{label, func(ctx context.Context, seed uint64) (float64, error) {
		r := soloRun(bench, seed, ablationCycles)
		r.Config.Seed = seed
		r.Config = edit(r.Config)
		res, err := r.Do(ctx)
		if err != nil {
			return 0, err
		}
		return res.ipc(0), nil
	}}
}

// reqcIPCArm is gcc's solo IPC under ReqC with sc.
func reqcIPCArm(label string, sc shaper.Config) ablationArm {
	return soloIPCArm(label, "gcc", func(cfg core.Config) core.Config { return withReqC(cfg, sc) })
}

// covertBERArm is the bit error rate of the bus-monitoring receiver
// against the Figure 14 key, sent under ReqC with sc.
func covertBERArm(label string, sc shaper.Config) ablationArm {
	return ablationArm{label, func(ctx context.Context, seed uint64) (float64, error) {
		counts, sent, err := covertCounts(ctx, withReqC(seeded(1, seed), sc), 0x2AAAAAAA, 32)
		if err != nil {
			return 0, err
		}
		return attack.DecodeCovertChannel(counts, sent).BER, nil
	}}
}

// policyConfig is the DESIRED staircase released under pol.
func policyConfig(pol shaper.Policy) shaper.Config {
	sc := DesiredStaircase()
	sc.Policy = pol
	return sc
}

// binCountConfig is an exact staircase over bins exponential bins.
func binCountConfig(bins int) shaper.Config {
	credits := make([]int, bins)
	for j := range credits {
		credits[j] = bins - j
	}
	return shaper.Config{
		Binning: stats.ExponentialBinning(bins, 2), Credits: credits, Window: 4096,
		GenerateFake: true, Policy: shaper.PolicyExact,
	}
}

// windowConfig is the covert defense with the given replenishment
// window, its credits scaled so the bandwidth stays constant.
func windowConfig(window sim.Cycle) shaper.Config {
	sc := CovertDefenseConfig()
	sc.Window = window
	scale := float64(window) / float64(shaper.DefaultWindow)
	for j := range sc.Credits {
		sc.Credits[j] = int(float64(sc.Credits[j])*scale + 0.5)
	}
	return sc
}

// fakeConfig is the covert defense with fake traffic on or off.
func fakeConfig(on bool) shaper.Config {
	sc := CovertDefenseConfig()
	sc.GenerateFake = on
	return sc
}

// closedPage sets the DRAM page policy.
func closedPage(closed bool) func(core.Config) core.Config {
	return func(cfg core.Config) core.Config {
		cfg.ClosedPage = closed
		return cfg
	}
}

// TestAblations runs DESIGN.md's ablations of the design decisions at
// seeds 1–3, logs every number, and asserts the orderings that hold at
// every seed. EXPERIMENTS.md's "Ablations" section reports these logs.
func TestAblations(t *testing.T) {
	const minBER = 0.4 // a closed channel decodes close to coin flips
	cases := []struct {
		name  string
		arms  []ablationArm
		claim string
		holds func(v []float64) bool
	}{
		{
			name: "policy",
			arms: []ablationArm{
				reqcIPCArm("oblivious", policyConfig(shaper.PolicyOblivious)),
				reqcIPCArm("exact", policyConfig(shaper.PolicyExact)),
				reqcIPCArm("at-most", policyConfig(shaper.PolicyAtMost)),
			},
			claim: "IPC oblivious < exact <= at-most",
			holds: func(v []float64) bool { return v[0] < v[1] && v[1] <= v[2] },
		},
		{
			name: "bins",
			arms: []ablationArm{
				reqcIPCArm("5", binCountConfig(5)),
				reqcIPCArm("10", binCountConfig(10)),
				reqcIPCArm("20", binCountConfig(20)),
			},
			claim: "IPC with 10 bins above 5 and 20",
			holds: func(v []float64) bool { return v[1] > v[0] && v[1] > v[2] },
		},
		{
			name: "fake",
			arms: []ablationArm{
				covertBERArm("off", fakeConfig(false)),
				covertBERArm("on", fakeConfig(true)),
			},
			claim: fmt.Sprintf("BER 0 without fakes, >= %.1f with them", minBER),
			holds: func(v []float64) bool { return v[0] == 0 && v[1] >= minBER },
		},
		{
			name: "window",
			arms: []ablationArm{
				covertBERArm("512", windowConfig(512)),
				covertBERArm("1024", windowConfig(1024)),
				covertBERArm("4096", windowConfig(4096)),
			},
			claim: fmt.Sprintf("BER >= %.1f at every window", minBER),
			holds: func(v []float64) bool { return v[0] >= minBER && v[1] >= minBER && v[2] >= minBER },
		},
		{
			name: "page",
			arms: []ablationArm{
				soloIPCArm("open", "libqt", closedPage(false)),
				soloIPCArm("closed", "libqt", closedPage(true)),
			},
			claim: "libqt IPC open page > closed page",
			holds: func(v []float64) bool { return v[0] > v[1] },
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				v := make([]float64, len(tc.arms))
				cells := make([]string, len(tc.arms))
				for i, arm := range tc.arms {
					var err error
					if v[i], err = arm.measure(ctx, seed); err != nil {
						t.Fatalf("seed %d %s: %v", seed, arm.label, err)
					}
					cells[i] = fmt.Sprintf("%s %.4f", arm.label, v[i])
				}
				t.Logf("seed %d: %s", seed, strings.Join(cells, ", "))
				if !tc.holds(v) {
					t.Errorf("seed %d: want %s", seed, tc.claim)
				}
			}
		})
	}
}
