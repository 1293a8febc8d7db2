package shaper_test

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// collect is a minimal downstream port.
type collect struct{ sent []*mem.Request }

func (c *collect) TrySend(_ sim.Cycle, req *mem.Request) bool {
	c.sent = append(c.sent, req)
	return true
}

// ExampleNewRequestShaper shows the core mechanism: a burst of four
// back-to-back requests is released according to the configured
// inter-arrival distribution, not its own timing.
func ExampleNewRequestShaper() {
	// Two releases per window may be back-to-back (bin 0); the rest must
	// wait at least 64 cycles (bin 5).
	credits := make([]int, stats.DefaultBins)
	credits[0] = 2
	credits[5] = 2
	cfg := shaper.Config{
		Binning: stats.DefaultBinning(),
		Credits: credits,
		Window:  4096,
		Policy:  shaper.PolicyExact,
	}

	out := &collect{}
	var ids mem.IDSource
	sh, err := shaper.NewRequestShaper(0, cfg, 16, out, sim.NewRNG(1), &ids)
	if err != nil {
		panic(err)
	}

	for i := 0; i < 4; i++ {
		sh.TrySend(1, &mem.Request{ID: uint64(i + 1), CreatedAt: 1})
	}
	for now := sim.Cycle(1); now <= 400; now++ {
		sh.Tick(now)
	}

	for i := 1; i < len(out.sent); i++ {
		gap := out.sent[i].ShapedAt - out.sent[i-1].ShapedAt
		fmt.Printf("release %d: %d cycles after the previous\n", i+1, gap)
	}
	// Output:
	// release 2: 1 cycles after the previous
	// release 3: 64 cycles after the previous
	// release 4: 64 cycles after the previous
}

// ExampleConstantRate shows the Ascend-style degenerate configuration:
// strictly periodic slots, with fake traffic filling empty ones.
func ExampleConstantRate() {
	cfg := shaper.ConstantRate(stats.DefaultBinning(), 100, 4096, true)
	out := &collect{}
	var ids mem.IDSource
	sh, err := shaper.NewRequestShaper(0, cfg, 16, out, sim.NewRNG(1), &ids)
	if err != nil {
		panic(err)
	}

	// One real request amid silence.
	sh.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 500; now++ {
		sh.Tick(now)
	}

	real, fake := 0, 0
	for _, r := range out.sent {
		if r.Fake {
			fake++
		} else {
			real++
		}
	}
	fmt.Printf("%d real + %d fake releases, all 100 cycles apart\n", real, fake)
	// Output:
	// 1 real + 4 fake releases, all 100 cycles apart
}
