package core

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
)

// EnableObs attaches the observability bundle to this system: every
// component registers its pull gauges on a scope owned by the simulation
// goroutine (published once per supervision quantum, so the HTTP scraper
// never reads live simulator state), and the lifecycle tracer hooks each
// core's delivery point. label distinguishes systems when one experiment
// drives several through a shared bundle (fig09 runs four). Call it once,
// after NewSystem and before the first Run; a nil bundle is a no-op.
func (s *System) EnableObs(b *obs.Bundle, label string) {
	if b == nil {
		return
	}
	s.obs = b
	reg := b.Registry
	scope := reg.NewScope()
	s.obsScope = scope

	scope.GaugeFunc("sim.cycle", func() float64 { return float64(s.Kernel.Now()) })
	scope.GaugeFunc("sim.outstanding", func() float64 { return float64(s.Outstanding()) })
	// Fast-path telemetry: how much of the clock's advance came from
	// idle-span jumps rather than per-cycle stepping. These describe how
	// the simulator ran, not where the simulation is, so they live only
	// in the registry — never in checkpoints.
	scope.GaugeFunc("sim.skipped_cycles", func() float64 { return float64(s.Kernel.SkippedCycles()) })
	scope.GaugeFunc("sim.clock_jumps", func() float64 { return float64(s.Kernel.Jumps()) })
	// Checkpoint-health gauges (the degraded-mode dashboard): whether disk
	// saves are failing, how often they have failed, and how many
	// checkpoints are riding on in-memory retention. The closures read
	// s.ckpt at publish time (sim goroutine only), so they are accurate
	// whether the policy is armed before or after EnableObs.
	scope.GaugeFunc("ckpt.degraded", func() float64 {
		if s.ckpt != nil && s.ckpt.degraded {
			return 1
		}
		return 0
	})
	scope.GaugeFunc("ckpt.save_failures", func() float64 {
		if s.ckpt == nil {
			return 0
		}
		return float64(s.ckpt.saveFails)
	})
	scope.GaugeFunc("ckpt.mem_retained", func() float64 {
		if s.ckpt == nil {
			return 0
		}
		return float64(len(s.ckpt.mem))
	})

	if b.Tracer != nil {
		b.Tracer.BeginRun(label)
	}
	for i, c := range s.Cores {
		c := c
		p := fmt.Sprintf("cpu.%d.", i)
		scope.GaugeFunc(p+"ipc", func() float64 { return c.Stats().IPC() })
		scope.GaugeFunc(p+"mem_stall_cycles", func() float64 { return float64(c.Stats().MemStallCycles) })
		scope.GaugeFunc(p+"shaper_stall_cycles", func() float64 { return float64(c.Stats().ShaperStallCycles) })
		scope.GaugeFunc(p+"mshr_occupancy", func() float64 { return float64(c.Cache().OutstandingMisses()) })
		scope.GaugeFunc(p+"responses", func() float64 { return float64(c.Stats().Responses) })
		scope.GaugeFunc(p+"fake_responses", func() float64 { return float64(c.Stats().FakeResponses) })
		if b.Tracer != nil {
			c.OnDelivered = func(_ sim.Cycle, resp *mem.Request) { b.Tracer.Delivered(resp) }
		}
	}

	for i, sh := range s.ReqShapers {
		if sh != nil {
			registerShaperGauges(scope, fmt.Sprintf("shaper.req.%d.", i), sh)
		}
	}
	for i, sh := range s.RespShapers {
		if sh != nil {
			registerShaperGauges(scope, fmt.Sprintf("shaper.resp.%d.", i), sh)
		}
	}

	for ch, mc := range s.MCs {
		mc := mc
		p := fmt.Sprintf("memctrl.%d.", ch)
		scope.GaugeFunc(p+"queue_depth", func() float64 { return float64(mc.QueueLen()) })
		scope.GaugeFunc(p+"outstanding", func() float64 { return float64(mc.Outstanding()) })
		scope.GaugeFunc(p+"occupancy_mean", func() float64 { return mc.Stats().MeanOccupancy() })
		scope.GaugeFunc(p+"issued", func() float64 { return float64(mc.Stats().Issued) })
		scope.GaugeFunc(p+"completed", func() float64 { return float64(mc.Stats().Completed) })
	}

	for ch, channel := range s.Channels {
		channel := channel
		p := fmt.Sprintf("dram.%d.", ch)
		scope.GaugeFunc(p+"row_hits", func() float64 { return float64(channel.Stats().RowHits) })
		scope.GaugeFunc(p+"row_empty", func() float64 { return float64(channel.Stats().RowEmpty) })
		scope.GaugeFunc(p+"row_conflicts", func() float64 { return float64(channel.Stats().RowConfl) })
		scope.GaugeFunc(p+"refreshes", func() float64 { return float64(channel.Stats().Refreshes) })
		scope.GaugeFunc(p+"bus_busy_cycles", func() float64 { return float64(channel.Stats().BusyCycles) })
		scope.GaugeFunc(p+"bus_utilization", func() float64 {
			if now := s.Kernel.Now(); now > 0 {
				return float64(channel.Stats().BusyCycles) / float64(now)
			}
			return 0
		})
		g := channel.Geometry()
		for r := 0; r < g.RanksPerChannel; r++ {
			for bk := 0; bk < g.BanksPerRank; bk++ {
				r, bk := r, bk
				scope.GaugeFunc(fmt.Sprintf("%sbank.%d.%d.busy_cycles", p, r, bk),
					func() float64 { return float64(channel.BankBusy(r, bk)) })
			}
		}
	}
}

// registerShaperGauges wires one shaper's instruments, including the
// paper's core security metric as two gauges: drift_l1 (cumulative
// emitted-vs-target L1 distance) and drift_l1_epoch (the same distance
// over only the releases since the previous publish, so a shaper that
// drifts late in a run is visible immediately rather than diluted by
// history). The per-epoch gauge reads the Shaped recorder installed at
// registration time.
func registerShaperGauges(scope *obs.Scope, p string, sh *shaper.Shaper) {
	shaped := sh.Shaped
	scope.GaugeFunc(p+"queue_depth", func() float64 { return float64(sh.QueueLen()) })
	scope.GaugeFunc(p+"credit_balance", func() float64 { return float64(sh.CreditBalance()) })
	scope.GaugeFunc(p+"fake_credit_balance", func() float64 { return float64(sh.FakeCreditBalance()) })
	scope.GaugeFunc(p+"released_real", func() float64 { return float64(sh.Stats().ReleasedReal) })
	scope.GaugeFunc(p+"released_fake", func() float64 { return float64(sh.Stats().ReleasedFake) })
	scope.GaugeFunc(p+"delayed_cycles", func() float64 { return float64(sh.Stats().DelayedCycles) })
	scope.GaugeFunc(p+"drift_l1", sh.DistributionDrift)

	// Per-epoch drift closes over the previous publish's counts; the
	// closure runs only from the sim goroutine (Scope.Publish), so the
	// captured slice needs no lock.
	prev := make([]uint64, len(shaped.Hist.Counts))
	scope.GaugeFunc(p+"drift_l1_epoch", func() float64 {
		cur := shaped.Hist.Counts
		var total uint64
		delta := make([]uint64, len(cur))
		for i := range cur {
			delta[i] = cur[i] - prev[i]
			total += delta[i]
		}
		copy(prev, cur)
		if total == 0 {
			return 0
		}
		target := sh.TargetPMF()
		var d float64
		for i := range delta {
			e := float64(delta[i]) / float64(total)
			diff := e - target[i]
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		return d
	})
}

// PublishObs evaluates every registered pull gauge. The supervised run
// path calls it once per supervision quantum; experiments that step the
// kernel directly may call it at their own boundaries. Only the
// simulation goroutine may call it.
func (s *System) PublishObs() { s.obsScope.Publish() }
