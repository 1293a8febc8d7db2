package core

import (
	"bytes"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/sim"
)

// skipComponent is what the kernel folds with Skip: a hinted, skippable,
// checkpointable component.
type skipComponent interface {
	sim.Tickable
	sim.NextWaker
	sim.Skipper
	ckpt.Stater
}

// TestSkipMatchesIdleTicks checks the Skip contract on real state. For
// each skippable component it steps a system until the component's hint
// parks it past the next cycle in an interesting state, clones the
// system through a checkpoint, ticks the component through the idle
// span in one copy and Skips it in the other, and compares the
// component's checkpoint bytes.
func TestSkipMatchesIdleTicks(t *testing.T) {
	const maxSpan = 64
	cases := []struct {
		name string
		pick func(s *System) skipComponent
		// parked reports whether the component is in the state under
		// test at the end of cycle now, given the controller's issue
		// count before that cycle.
		parked func(s *System, c skipComponent, now sim.Cycle, issuedBefore uint64) bool
	}{
		{"core/compute", func(s *System) skipComponent { return s.Cores[0] },
			func(s *System, c skipComponent, now sim.Cycle, _ uint64) bool {
				w := c.NextWake(now)
				return w > now+2 && w != sim.NeverWake
			}},
		{"core/blocked", func(s *System) skipComponent { return s.Cores[0] },
			func(s *System, c skipComponent, now sim.Cycle, _ uint64) bool {
				return c.NextWake(now) == sim.NeverWake && !s.Cores[0].Finished()
			}},
		{"link/in-flight", func(s *System) skipComponent { return s.RespNet },
			func(s *System, c skipComponent, now sim.Cycle, _ uint64) bool {
				return c.NextWake(now) > now+2 && s.RespNet.Outstanding() > 0
			}},
		{"dram/after-issue", func(s *System) skipComponent { return s.Channel },
			func(s *System, c skipComponent, now sim.Cycle, issuedBefore uint64) bool {
				return c.NextWake(now) > now+2 && s.MC.Stats().Issued > issuedBefore
			}},
		{"memctrl/in-flight", func(s *System) skipComponent { return s.MC },
			func(s *System, c skipComponent, now sim.Cycle, _ uint64) bool {
				return c.NextWake(now) > now+2 && s.MC.QueueLen() == 0 && s.MC.Outstanding() > 0
			}},
	}
	build := func() *System {
		sys := mustSystem(DefaultConfig(), sources(4, "mcf", "astar", "gcc", "sjeng"))
		sys.Kernel.SetFastPath(false)
		return sys
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ticked := build()
			c := tc.pick(ticked)
			found := false
			for i := 0; i < 200_000 && !found; i++ {
				issued := ticked.MC.Stats().Issued
				ticked.Kernel.Step()
				now := ticked.Kernel.Now()
				found = now > 1_000 && tc.parked(ticked, c, now, issued)
			}
			if !found {
				t.Fatal("component never reached the state under test")
			}
			now := ticked.Kernel.Now()
			h, payload, err := ticked.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			skipped := build()
			if err := skipped.RestoreState(h, payload); err != nil {
				t.Fatal(err)
			}

			to := min(c.NextWake(now)-1, now+maxSpan)
			for cyc := now + 1; cyc <= to; cyc++ {
				c.Tick(cyc)
			}
			tc.pick(skipped).Skip(now+1, to)

			var want, got ckpt.Encoder
			c.Snapshot(&want)
			tc.pick(skipped).Snapshot(&got)
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("Skip(%d, %d) left a different state than ticking through the span", now+1, to)
			}
		})
	}
}

// TestReconfigureBetweenRunsMatchesStepped reconfigures a request shaper
// between runs while its hint parks it until the next window edge, and
// checks the scheduled run against a stepped one. The new configuration
// replays its missed windows one per cycle from the next cycle on, so a
// shaper left asleep until its old wake shows up in the state.
func TestReconfigureBetweenRunsMatchesStepped(t *testing.T) {
	run := func(fast bool) []byte {
		cfg := DefaultConfig()
		cfg.Scheme = ReqC
		req := DefaultShaperConfig()
		req.GenerateFake = false
		cfg.ReqShaperCfg = &req
		sys := mustSystem(cfg, sources(4, "sjeng"))
		sys.Kernel.SetFastPath(fast)
		if err := sys.Run(20_500); err != nil {
			t.Fatal(err)
		}
		sh := sys.ReqShapers[0]
		if fast {
			if now := sys.Kernel.Now(); sh.NextWake(now) <= now+100 {
				t.Fatalf("shaper not parked at cycle %d: wakes at %d", now, sh.NextWake(now))
			}
		}
		if err := sh.Reconfigure(req); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(100); err != nil {
			t.Fatal(err)
		}
		return encodeState(t, sys)
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("state after a reconfigure between runs differs between scheduled and stepped runs")
	}
}
