// Quickstart: run gcc on a one-core system under Request Camouflage, and
// watch its memory request distribution get shaped into a chosen one —
// the core idea of the paper in ~50 lines.
package main

import (
	"context"
	"fmt"

	"camouflage/internal/core"
	"camouflage/internal/harness"
)

func main() {
	// 1. Configure the system: Table II's machine with Request
	// Camouflage shaping core 0 into the DESIRED staircase distribution,
	// fake traffic included.
	cfg := core.DefaultConfig()
	cfg.Cores = 1
	cfg.Scheme = core.ReqC
	target := harness.DesiredStaircase()
	cfg.ReqShaperCfg = &target

	// 2. Run gcc, one of the trace profiles of the paper's SPECInt 2006
	// + Apache suite, for half a million cycles.
	res, err := harness.Run{Config: cfg, Benchmarks: []string{"gcc"}, TraceSeed: 42, Cycles: 500_000}.Do(context.Background())
	if err != nil {
		panic(err)
	}

	// 3. Inspect: the intrinsic distribution (what gcc wanted to do) vs
	// the shaped distribution (what the memory bus saw).
	st := res.ShaperStats
	windows := float64(st.Replenishments)

	fmt.Println("bin lower edges (cycles):", target.Binning.Edges)
	fmt.Println("target credits/window:   ", target.Credits)
	fmt.Print("intrinsic per window:     ")
	for _, c := range res.ShaperIn.Hist.Counts {
		fmt.Printf("%5.1f", float64(c)/windows)
	}
	fmt.Print("\nshaped per window:        ")
	for _, c := range res.ShaperOut.Hist.Counts {
		fmt.Printf("%5.1f", float64(c)/windows)
	}
	fmt.Printf("\n\nreal releases %d, fake releases %d, core IPC %.3f\n",
		st.ReleasedReal, st.ReleasedFake, res.Stats[0].IPC())
	fmt.Println("\nThe shaped row matches the target regardless of what gcc did —")
	fmt.Println("that fixed bus-visible distribution is what the adversary sees.")
}
