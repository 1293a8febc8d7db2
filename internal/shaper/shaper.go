package shaper

import (
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// FakeAddressSpace bounds the random line addresses fake traffic touches.
// Fake requests are non-cached reads scattered across memory so they look
// like ordinary misses on the bus and in DRAM.
const FakeAddressSpace = 1 << 32

// PriorityElevator is the memory controller interface the response shaper
// uses to accelerate a lagging core: raise core's scheduling priority to
// level until cycle until. It is implemented by memctrl.Controller.
type PriorityElevator interface {
	Elevate(core, level int, until sim.Cycle)
}

// ElevatedPriority is the priority level granted by response-shaper
// warnings; per the paper the memory scheduler gives the affected
// application priority "in proportion to the number of unused credits",
// which is added on top of this base.
const ElevatedPriority = 10

// Shaper is one Camouflage instance for one core. The same type serves
// both placements of §III; its constructor fixes which.
//
// Request Camouflage (ReqC, NewRequestShaper) sits between a core's LLC
// miss stream and the shared channel, transforming the core's intrinsic
// request inter-arrival distribution into the configured one. Real
// traffic beyond the distribution is delayed (backpressure stalls the
// core); shortfall is filled with fake requests generated from the
// previous window's unused credits.
//
// Response Camouflage (RespC, NewResponseShaper) sits at the memory
// controller's egress and shapes the inter-arrival times of that core's
// responses. Throttling buffers responses in the response queue (Figure
// 6); acceleration works two ways — a warning to the memory scheduler
// asking for elevated priority proportional to the unused credits, and
// fake responses generated when no real response is pending.
type Shaper struct {
	core int
	bins *binCore
	// queue holds transactions awaiting release: the core's misses
	// (ReqC, bounded by the MSHR count) or completed responses (RespC,
	// the response queue of Figure 6). Its bound is the backpressure
	// that stalls the core or the controller egress.
	queue *mem.Queue
	out   mem.ReqPort
	// outFull, when the output port exposes fullness (the NoC input
	// queue does), lets congested cycles burn a fake's ID and address
	// draw without constructing the transaction: admission is known to
	// fail, and the draws alone keep the retry schedule byte-identical
	// with the construct-then-reject path.
	outFull interface{ Full() bool }
	// response selects the RespC stamps: a release sets RespShaped and
	// measures its delay from ReadyAt, where ReqC sets ShapedAt and
	// measures from CreatedAt.
	response bool
	// mc receives RespC priority warnings; nil disables them (always nil
	// for ReqC).
	mc  PriorityElevator
	rng *sim.RNG

	ids *mem.IDSource

	// wake re-arms the shaper in its kernel's schedule before an
	// arrival lands (see sim.WakeHandle).
	wake sim.WakeHandle
	// outQueue is the output when it is a mem.Queue, which arms the
	// shaper when it frees a slot; only then can the shaper park.
	outQueue *mem.Queue
	// parked is set while the shaper sleeps on a full output (see
	// NextWake); settled is the last cycle whose refused Tick has been
	// replayed (see settle). Both describe the schedule, not the
	// shaper: neither is checkpoint state.
	parked  bool
	settled sim.Cycle

	// pool, when set, supplies fake transactions and takes back fakes the
	// NoC refused at admission. Nil keeps plain allocation.
	pool *mem.Pool

	// Intrinsic records the distribution offered to the shaper (the
	// core's misses, or responses as the controller produced them);
	// Shaped records the distribution visible downstream (on the bus, or
	// to the core). The mutual-information probe compares them.
	Intrinsic *stats.InterArrivalRecorder
	Shaped    *stats.InterArrivalRecorder
}

// NewRequestShaper returns a ReqC instance for core. inCap bounds the
// input queue (backpressure depth, typically the MSHR count); out is the
// NoC injection port; ids supplies IDs for fake requests. The
// configuration is validated; an invalid one is a user input error, not a
// panic.
func NewRequestShaper(core int, cfg Config, inCap int, out mem.ReqPort, rng *sim.RNG, ids *mem.IDSource) (*Shaper, error) {
	return newShaper(core, cfg, inCap, out, rng, ids)
}

// NewResponseShaper returns a RespC instance for core. queueCap bounds the
// response queue; out is the response NoC injection port; mc receives
// priority warnings (nil disables acceleration-by-priority).
func NewResponseShaper(core int, cfg Config, queueCap int, out mem.RespPort, mc PriorityElevator, rng *sim.RNG, ids *mem.IDSource) (*Shaper, error) {
	s, err := newShaper(core, cfg, queueCap, out, rng, ids)
	if err != nil {
		return nil, err
	}
	s.response = true
	s.mc = mc
	return s, nil
}

func newShaper(core int, cfg Config, queueCap int, out mem.ReqPort, rng *sim.RNG, ids *mem.IDSource) (*Shaper, error) {
	bins, err := newBinCore(cfg, rng)
	if err != nil {
		return nil, err
	}
	full, _ := out.(interface{ Full() bool })
	return &Shaper{
		core:      core,
		bins:      bins,
		queue:     mem.NewQueue(queueCap),
		out:       out,
		outFull:   full,
		rng:       rng,
		ids:       ids,
		Intrinsic: stats.NewInterArrivalRecorder(cfg.Binning, false),
		Shaped:    stats.NewInterArrivalRecorder(cfg.Binning, false),
	}, nil
}

// SetPool makes the shaper draw fake transactions from pool and return
// admission-rejected fakes to it. A nil pool (the default) keeps plain
// allocation.
func (s *Shaper) SetPool(pool *mem.Pool) { s.pool = pool }

// SetWake installs the shaper's handle on its kernel slot. TrySend uses
// it before queueing an arrival (see wakeBeforeMutation), so an idle
// shaper is ticked again from the arrival's cycle on. An output mem.Queue arms it when it frees a
// slot, which lets the shaper park on a full output, and the ID source
// settles the burns a parked shaper owes before each draw. Call it once.
func (s *Shaper) SetWake(w sim.WakeHandle) {
	s.wake = w
	if q, ok := s.out.(*mem.Queue); ok {
		q.SetSpaceWake(w)
		s.outQueue = q
	}
	s.ids.Track(s, w)
}

// Config returns the active configuration.
func (s *Shaper) Config() Config { return s.bins.cfg.Clone() }

// Reconfigure installs a new bin configuration (the hypervisor writing the
// control registers; the online GA uses this between children). Credit
// state resets; queued traffic and lifetime statistics are preserved. An
// invalid configuration is rejected without touching the running shaper.
// The window, epoch and oblivious clocks also restart from cycle 0, so a
// mid-run call replays the windows since then, one per cycle (a known
// deviation, see DESIGN.md). Like an arrival, it wakes the shaper first,
// so a shaper parked on the old configuration's hint is ticked again.
func (s *Shaper) Reconfigure(cfg Config) error {
	s.wakeBeforeMutation()
	bins, err := newBinCore(cfg, s.rng)
	if err != nil {
		return err
	}
	bins.stats = s.bins.stats
	s.bins = bins
	return nil
}

// Stats returns shaper counters.
func (s *Shaper) Stats() Stats { return s.bins.stats }

// CheckConservation verifies the credit ledger invariants (see binCore).
// The runtime invariant monitor calls it periodically.
func (s *Shaper) CheckConservation() error { return s.bins.checkConservation() }

// QueueLen returns the number of transactions awaiting release.
func (s *Shaper) QueueLen() int { return s.queue.Len() }

// ForEachRequest visits every queued transaction awaiting release.
// Checkpoint restore uses it to rebuild MSHR aliasing.
func (s *Shaper) ForEachRequest(fn func(*mem.Request)) { s.queue.ForEach(fn) }

// CreditBalance returns the live credits remaining in the current window.
func (s *Shaper) CreditBalance() int { return s.bins.liveCredits() }

// FakeCreditBalance returns the banked credits backing the fake-traffic
// generator.
func (s *Shaper) FakeCreditBalance() int { return s.bins.unusedCredits() }

// TargetPMF returns the configured release distribution (see
// binCore.targetPMF).
func (s *Shaper) TargetPMF() []float64 { return s.bins.targetPMF() }

// DistributionDrift returns the L1 distance between the emitted
// inter-arrival distribution and the configured target — the paper's
// core security metric: a drift of 0 means the bus shows exactly the
// configured distribution; 2 is maximal divergence. Returns 0 until the
// shaper has released anything.
func (s *Shaper) DistributionDrift() float64 {
	return distributionDrift(s.Shaped, s.bins)
}

// TrySend implements mem.ReqPort and mem.RespPort: the core offers its
// misses here (ReqC), or the memory controller egress delivers completed
// transactions (RespC). A full queue refuses, which stalls the core or
// controller retirement (the return-channel overflow prevention the paper
// mentions).
func (s *Shaper) TrySend(now sim.Cycle, req *mem.Request) bool {
	if s.queue.Full() {
		return false
	}
	s.wakeBeforeMutation()
	s.queue.Push(req)
	s.Intrinsic.Observe(now)
	s.bins.noteArrival()
	return true
}

// NextWake implements sim.NextWaker: the next replenishment, slot,
// epoch boundary or credit-admitted release cycle (see binCore.nextWake).
// An idle Tick before that cycle mutates nothing. The replenishment
// clamp also covers the RespC priority warning: Elevate fires only on
// replenishment cycles, which are never skipped.
//
// A credit-mode shaper whose output queue is full parks instead: until
// the next replenishment or until the queue frees a slot (and arms it),
// every Tick is refused, and Skip replays those refusals in bulk. The
// periodic and oblivious modes keep retrying every cycle.
func (s *Shaper) NextWake(now sim.Cycle) sim.Cycle {
	s.parked = false
	if s.outQueue != nil && s.outQueue.Full() && s.bins.creditMode() {
		if w := s.bins.nextReplenish; w > now+1 {
			s.parked, s.settled = true, now
			return w
		}
	}
	return s.bins.nextWake(now, s.queue.Peek() != nil)
}

// Skip implements sim.Skipper by settling the span (see settle).
func (s *Shaper) Skip(from, to sim.Cycle) { s.ids.Burn(s.settle(to)) }

// SettleBurns implements mem.Burner (see settle).
func (s *Shaper) SettleBurns(through sim.Cycle) uint64 { return s.settle(through) }

// settle replays a parked shaper's refused Ticks after settled through
// cycle through, and returns the IDs they burned for the caller to burn
// in the ID source. In each replayed cycle whose release verdict admits,
// the Tick offered the queue head to the full output, stamping it with
// that cycle, or, with no head, burned a fake's ID and address draw.
// Verdicts hold across memo intervals, so the replay walks intervals,
// not cycles (binCore.admits). Skip, the ID source and a mutation from
// outside (wakeBeforeMutation) all settle, each through the last cycle
// it must see accounted; settled keeps them from replaying a cycle
// twice.
func (s *Shaper) settle(through sim.Cycle) uint64 {
	if !s.parked || through <= s.settled {
		return 0
	}
	from := s.settled + 1
	s.settled = through
	if head := s.queue.Peek(); head != nil {
		if n, last := s.bins.admits(from, through, false); n > 0 {
			s.stamp(head, last)
		}
		return 0
	}
	n, _ := s.bins.admits(from, through, true)
	s.rng.Discard(n)
	return n
}

// wakeBeforeMutation makes the shaper due again before another
// component changes it. Where sim.WakeHandle.Wake would fold the skipped
// span into Skip first, the shaper settles itself through the same cycle
// and is only armed: Skip has nothing left to replay but the kernel
// still folds the span before the next Tick. Settling in place keeps the
// replay out of a nested Skip call inside the caller's Tick.
func (s *Shaper) wakeBeforeMutation() {
	if through, ok := s.wake.SteppedThrough(); ok {
		s.ids.Burn(s.settle(through))
	}
	s.wake.Arm()
}

// Tick advances the shaper: replenish if due (on RespC, unused credits
// trigger a priority warning to the memory scheduler), then release at
// most one transaction — a credited real one if one is pending, else a
// fake if the generator owes traffic (fake traffic has strictly lower
// priority and only fires on cycles with no real transaction, §III-A2).
// In strict periodic mode (the CS baseline) releases happen only at slot
// boundaries.
func (s *Shaper) Tick(now sim.Cycle) {
	s.parked = false
	if s.bins.periodic() {
		s.tickPeriodic(now)
		return
	}
	if replenished, unused := s.bins.maybeReplenish(now); replenished && unused > 0 && s.mc != nil {
		// Ask the scheduler to accelerate this core in proportion to how
		// far its response rate fell below the target distribution.
		s.mc.Elevate(s.core, ElevatedPriority+unused, now+s.bins.cfg.Window)
		s.bins.stats.WarningsSent++
	}
	if s.bins.cfg.Policy == PolicyOblivious {
		s.tickOblivious(now)
		return
	}

	if head := s.queue.Peek(); head != nil {
		// A refused send (downstream full) keeps the credit for the retry.
		if bin, ok := s.bins.releaseBin(now); ok && s.sendReal(now, head) {
			s.bins.commitReal(now, bin)
		}
		return
	}
	if bin, ok := s.bins.fakeBin(now); ok && s.sendFake(now) {
		s.bins.commitFake(now, bin)
	}
}

// tickOblivious implements PolicyOblivious: the release schedule is a
// renewal process drawn from the configured distribution. At each
// scheduled release point, send the pending real transaction if there is
// one, else a fake, else let the slot lapse.
func (s *Shaper) tickOblivious(now sim.Cycle) {
	if !s.bins.obliviousDue(now) {
		return
	}
	if head := s.queue.Peek(); head != nil {
		if s.sendReal(now, head) { // else retry; the slot stays open
			s.bins.commitOblivious(now, false)
		}
		return
	}
	if s.bins.cfg.GenerateFake {
		if s.sendFake(now) {
			s.bins.commitOblivious(now, true)
		}
		return
	}
	s.bins.lapseOblivious(now)
}

// tickPeriodic implements the strictly periodic constant-rate shaper: one
// release opportunity per interval, filled by a pending real transaction,
// else by a fake when fake generation is on, else lapsing.
func (s *Shaper) tickPeriodic(now sim.Cycle) {
	s.bins.maybeEpochSwitch(now)
	if !s.bins.slotOpen(now) {
		return
	}
	if head := s.queue.Peek(); head != nil {
		if s.sendReal(now, head) { // else keep the slot open and retry
			s.bins.markReal(now)
			s.bins.closeSlot(now)
		}
		return
	}
	if s.bins.cfg.GenerateFake {
		if !s.sendFake(now) {
			return
		}
		s.bins.markFake(now)
	}
	s.bins.closeSlot(now)
}

// sendReal offers the queue head downstream, stamped with the release
// cycle. On admission it dequeues the head, accounts its shaping delay
// and records the release; the caller commits the credit. A refusal
// leaves everything as it was for the retry.
func (s *Shaper) sendReal(now sim.Cycle, head *mem.Request) bool {
	s.stamp(head, now)
	arrived := head.CreatedAt
	if s.response {
		arrived = head.ReadyAt
	}
	if !s.out.TrySend(now, head) {
		return false
	}
	s.queue.Pop()
	s.bins.stats.DelayedCycles += uint64(now - arrived)
	s.Shaped.Observe(now)
	return true
}

// sendFake builds a fake transaction and offers it downstream, recording
// the release on admission; the caller commits the credit. A fake's ID
// increment and address draw happen whether or not it is admitted — they
// must, to keep golden outputs byte-identical with the retry that
// follows. A port observably full takes only those draws; a refused fake
// goes back to the pool.
func (s *Shaper) sendFake(now sim.Cycle) bool {
	if s.outFull != nil && s.outFull.Full() {
		s.ids.Burn(1)
		s.rng.Uint64n(FakeAddressSpace / mem.LineSize)
		return false
	}
	fake := s.newFake(now)
	if !s.out.TrySend(now, fake) {
		s.pool.Put(fake)
		return false
	}
	s.Shaped.Observe(now)
	return true
}

// stamp marks head released at cycle now: RespShaped for RespC,
// ShapedAt for ReqC.
func (s *Shaper) stamp(head *mem.Request, now sim.Cycle) {
	if s.response {
		head.RespShaped = now
	} else {
		head.ShapedAt = now
	}
}

func (s *Shaper) newFake(now sim.Cycle) *mem.Request {
	fake := s.pool.Get()
	fake.ID = s.ids.Next()
	fake.Core = s.core
	fake.Addr = s.rng.Uint64n(FakeAddressSpace/mem.LineSize) * mem.LineSize
	fake.Op = mem.Read
	fake.Fake = true
	fake.CreatedAt = now
	if s.response {
		fake.ReadyAt = now
		fake.RespShaped = now
	} else {
		fake.ShapedAt = now
	}
	return fake
}
