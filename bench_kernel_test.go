package camouflage_test

import (
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// kernelBenchCycles is long enough to amortize system construction and
// cross several shaper windows and refresh intervals, short enough that
// the full fast/stepped matrix stays CI-friendly.
const kernelBenchCycles sim.Cycle = 200_000

// BenchmarkKernel measures raw simulation throughput — cycles of
// simulated time per second of wall clock — per shaping scheme, with
// the idle fast path on ("fast") and forced off ("stepped"). The
// fast/stepped ratio is the machine-independent number the CI gate
// tracks via BENCH_kernel.json: regressions in the wake hints show up
// as a shrinking ratio long before absolute ns/op would flag anything
// on heterogeneous runners.
//
// The "sjeng" workload is the paper's least memory-intensive profile
// (burst gap mean 1100 cycles): mostly idle spans, the fast path's best
// case and the one the ≥2x speedup claim is made on. "mixed" pairs it
// with progressively more memory-bound profiles to show the ratio
// degrades gracefully rather than cliffing. "mcf" under BDC is the
// saturated steady state: the controller queue stays full, and the
// ratio measures how much the senders parked in front of it sleep.
func BenchmarkKernel(b *testing.B) {
	schemes := []struct {
		name string
		cfg  func() core.Config
	}{
		{"noshaping", core.DefaultConfig},
		{"cs", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.CS
			req := shaper.ConstantRate(stats.DefaultBinning(), 64, 4096, false)
			cfg.ReqShaperCfg = &req
			return cfg
		}},
		{"bdc", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.BDC
			req := core.DefaultShaperConfig()
			resp := core.DefaultShaperConfig()
			cfg.ReqShaperCfg = &req
			cfg.RespShaperCfg = &resp
			return cfg
		}},
		{"epoch", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.CS
			req := shaper.EpochRateSet(stats.DefaultBinning(), []sim.Cycle{64, 128, 256}, 8192, 4096, true)
			cfg.ReqShaperCfg = &req
			return cfg
		}},
	}
	workloads := []struct {
		name  string
		names []string
		// only, when set, restricts the workload to one scheme.
		only string
	}{
		{"sjeng", []string{"sjeng"}, ""},
		{"mixed", []string{"sjeng", "h264ref", "gobmk", "mcf"}, "noshaping"},
		{"mcf", []string{"mcf"}, "bdc"},
	}
	for _, s := range schemes {
		for _, w := range workloads {
			// The per-scheme fast-path ratio only needs the idle
			// workload; mixed is measured on the unshaped baseline and
			// the saturated mcf load on BDC.
			if w.only != "" && s.name != w.only {
				continue
			}
			for _, mode := range []string{"fast", "stepped"} {
				mode := mode
				b.Run(s.name+"/"+w.name+"/"+mode, func(b *testing.B) {
					benchKernelRun(b, s.cfg(), w.names, mode == "fast")
				})
			}
		}
	}
}

func benchKernelRun(b *testing.B, cfg core.Config, names []string, fast bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(cfg, benchKernelSources(cfg.Cores, names))
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.SetFastPath(fast)
		if err := sys.Run(kernelBenchCycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kernelBenchCycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

func benchKernelSources(n int, names []string) []trace.Source {
	rng := sim.NewRNG(17)
	srcs := make([]trace.Source, n)
	for i := 0; i < n; i++ {
		p, err := trace.ProfileByName(names[i%len(names)])
		if err != nil {
			panic(err)
		}
		g, err := trace.NewGenerator(p, rng.Fork())
		if err != nil {
			panic(err)
		}
		srcs[i] = g
	}
	return srcs
}
