// Cloudtenants: the paper's IaaS scenario. Four VMs share one memory
// system; the VM on core 0 is an untrusted tenant that measures its own
// response latencies to infer what its neighbours are doing. The example
// shows the leak (swapping the neighbours from astar to mcf visibly
// changes the adversary's latencies) and then closes it with Response
// Camouflage.
package main

import (
	"context"
	"fmt"

	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

const cycles = 400_000

func main() {
	fmt.Println("== Without protection (FR-FCFS) ==")
	latAstar, _ := run("astar", nil)
	latMcf, hist := run("mcf", nil)
	fmt.Printf("adversary mean observed latency next to astar: %6.1f cycles\n", latAstar)
	fmt.Printf("adversary mean observed latency next to mcf:   %6.1f cycles\n", latMcf)
	fmt.Printf("-> the %.0f-cycle difference is the side channel: the adversary\n", latMcf-latAstar)
	fmt.Println("   can tell which neighbour it shares the machine with.")

	fmt.Println("\n== With Response Camouflage on the adversary ==")
	// Shape the adversary's responses to a fixed cadence at the rate it
	// would see next to mcf, in both worlds; fake responses fill empty
	// slots so the cadence never depends on the neighbours.
	interval := sim.Cycle(hist.MeanInterArrival())
	target := shaper.ConstantRate(stats.DefaultBinning(), interval, 4*shaper.DefaultWindow, true)
	latAstarC, _ := run("astar", &target)
	latMcfC, _ := run("mcf", &target)
	fmt.Printf("adversary mean observed latency next to astar: %6.1f cycles\n", latAstarC)
	fmt.Printf("adversary mean observed latency next to mcf:   %6.1f cycles\n", latMcfC)
	fmt.Printf("-> difference shrinks to %.1f cycles: the response stream no longer\n", latMcfC-latAstarC)
	fmt.Println("   depends on the neighbours; fake responses fill the gaps.")
}

// run simulates w(gcc, victim) and returns the adversary's mean observed
// response latency plus its response inter-arrival histogram.
func run(victim string, respCfg *shaper.Config) (float64, *stats.Histogram) {
	cfg := core.DefaultConfig()
	if respCfg != nil {
		cfg.Scheme = core.RespC
		sc := respCfg.Clone()
		cfg.RespShaperCfg = &sc
		cfg.RespShaperCores = []int{0}
	}
	res, err := harness.Run{
		Config:     cfg,
		Benchmarks: []string{"gcc", victim, victim, victim},
		TraceSeed:  7,
		Watch:      0,
		Probe:      true,
		RespHist:   true,
		Cycles:     cycles,
	}.Do(context.Background())
	if err != nil {
		panic(err)
	}
	var lat stats.Summary
	for _, l := range res.Probe.Latencies() {
		lat.Add(float64(l))
	}
	return lat.Mean(), res.RespHist
}
