// Package camouflage_test holds the repository-wide performance
// benchmarks and tests: simulator throughput (BenchmarkKernel,
// BenchmarkKernelTick, BenchmarkSystemThroughput), the mutual-information
// kernel, observability overhead and the busy-path allocation gate. The
// paper's tables and figures are regenerated by cmd/experiments, and
// internal/harness tests assert their shape claims.
package camouflage_test

import (
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/mi"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// BenchmarkKernelTick measures the cycle-stepped kernel's raw overhead
// (design decision 1).
func BenchmarkKernelTick(b *testing.B) {
	k := sim.NewKernel(1)
	k.Register(sim.TickFunc(func(sim.Cycle) {}))
	k.Register(sim.TickFunc(func(sim.Cycle) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkSystemThroughput measures whole-system simulation speed in
// cycles per second.
func BenchmarkSystemThroughput(b *testing.B) {
	srcs := make([]trace.Source, 4)
	rng := sim.NewRNG(3)
	names := []string{"mcf", "astar", "gcc", "apache"}
	for i := range srcs {
		p, err := trace.ProfileByName(names[i])
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = mustGen(p, rng.Fork())
	}
	sys, err := core.NewSystem(core.DefaultConfig(), srcs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1)
	}
	b.ReportMetric(float64(sys.TotalWork()), "work-units")
}

// BenchmarkMIComputation measures the information-theory kernel.
func BenchmarkMIComputation(b *testing.B) {
	rng := sim.NewRNG(5)
	bn := stats.ExponentialBinning(16, 1)
	n := 4096
	x := make([]sim.Cycle, n)
	y := make([]sim.Cycle, n)
	for i := range x {
		x[i] = sim.Cycle(rng.Intn(2000))
		y[i] = sim.Cycle(rng.Intn(2000))
	}
	b.ResetTimer()
	var v float64
	for i := 0; i < b.N; i++ {
		v = mi.SequenceMI(x, y, bn)
	}
	b.ReportMetric(v, "mi-bits")
}

// mustGen panics on generator construction errors; the benchmarks use
// only known-valid profiles.
func mustGen(p trace.Profile, rng *sim.RNG) *trace.Generator {
	g, err := trace.NewGenerator(p, rng)
	if err != nil {
		panic(err)
	}
	return g
}
