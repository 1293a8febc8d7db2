package memctrl

import (
	"sort"

	"camouflage/internal/dram"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// DefaultQueueDepth is the paper's 32-entry transaction queue.
const DefaultQueueDepth = 32

// Controller is the memory controller: it accepts transactions from the
// request NoC into a bounded queue, schedules them onto the DRAM channel
// with its configured policy, tracks in-flight data bursts, and emits
// completed transactions to per-core egress ports (where Response
// Camouflage sits).
type Controller struct {
	channel   *dram.Channel
	scheduler Scheduler
	depth     int

	queue []*mem.Request

	// inflight holds issued transactions ordered by completion cycle.
	inflight []completion

	// egress[core] receives completed transactions for that core.
	egress []mem.RespPort

	// prio holds per-core priority levels for FR-FCFS elevation.
	prio []int
	// prioUntil expires temporary elevation (RespC warnings).
	prioUntil []sim.Cycle

	// kernel/handler route priority expiry through typed kernel events
	// when the controller runs under a kernel (AttachKernel). Standalone
	// controllers — unit tests drive Tick directly — fall back to a
	// per-tick expiry scan. Neither field is checkpoint state: expiry
	// events ride in the kernel's own snapshot.
	kernel  *sim.Kernel
	handler sim.HandlerID
	// wake re-arms the controller in its kernel's schedule before an
	// arrival lands (see sim.WakeHandle); space arms the request link
	// when an issue frees a slot in the full queue.
	wake, space sim.WakeHandle

	stats ControllerStats
	// accounted is the cycle through which Cycles/QueueOccupancySum have
	// been folded; lastSeen is the latest cycle the controller observed
	// (tick or skip). Queue length only changes inside TrySend and Tick,
	// so occupancy-time integrates lazily: each mutation first folds the
	// constant-length span since accounted, and the busy loop never
	// touches the shared counters. Derived bookkeeping, not state —
	// Snapshot folds before writing so the serialized stats are exact.
	accounted sim.Cycle
	lastSeen  sim.Cycle

	// bankQueued counts queued transactions per (rank, bank), indexed
	// rank*BanksPerRank+bank; nextPickAt is the earliest cycle at which a
	// scheduler scan could find an issuable transaction. Together they
	// gate the per-request Pick scan: in saturation issues are data-bus
	// paced (one per burst), so most cycles no bank can accept a command
	// and the verdict is memoized until the computed wake or until an
	// arrival or completion changes bank demand. The gate is
	// policy-independent — it fires only when zero queued transactions
	// are bank-issuable, in which case every Scheduler returns -1.
	// Derived bookkeeping, not checkpoint state: restore rebuilds
	// bankQueued from the queue and leaves nextPickAt at zero (rescan).
	bankQueued   []int32
	banksPerRank int
	nextPickAt   sim.Cycle
}

// evPrioExpire is the typed kernel event that clears an expired priority
// elevation; arg carries the core index.
const evPrioExpire sim.EventKind = 1

// AttachKernel registers the controller as a typed-event handler, turning
// priority expiry from a per-tick scan into scheduled events. Systems call
// it once at assembly time, before any Elevate.
func (c *Controller) AttachKernel(k *sim.Kernel) {
	c.kernel = k
	c.handler = k.RegisterHandler(c)
}

// SetWake installs the controller's handle on its kernel slot. TrySend
// calls it before queueing, so an idle controller is ticked again from
// the arrival's cycle on; a refused offer changes nothing the controller
// acts on and does not wake it. Elevate and priority expiry need no wake
// either: they only matter to a scheduler scan, and the scan runs only
// once the pick gate opens (nextPickAt), which priorities do not move.
func (c *Controller) SetWake(w sim.WakeHandle) { c.wake = w }

// SetSpaceWake installs the handle the controller arms when an issue
// frees a slot in its full queue: the request link's, which parks while
// the controller refuses it (see noc.BulkRefuser).
func (c *Controller) SetSpaceWake(w sim.WakeHandle) { c.space = w }

// HandleEvent implements sim.EventHandler. A stale expiry (the core was
// re-elevated to a later deadline after this event was scheduled) is
// recognized by the deadline check and ignored.
func (c *Controller) HandleEvent(now sim.Cycle, kind sim.EventKind, arg uint64) {
	if kind != evPrioExpire {
		return
	}
	core := int(arg)
	if core >= 0 && core < len(c.prio) && c.prio[core] != 0 && now >= c.prioUntil[core] {
		c.prio[core] = 0
	}
}

// fold integrates queue-occupancy time for the constant-length span
// (accounted, through]. Callers must fold before any queue mutation and
// before exposing stats.
func (c *Controller) fold(through sim.Cycle) {
	if through <= c.accounted {
		return
	}
	n := uint64(through - c.accounted)
	c.stats.Cycles += n
	c.stats.QueueOccupancySum += n * uint64(len(c.queue))
	c.accounted = through
}

type completion struct {
	at  sim.Cycle
	req *mem.Request
}

// ControllerStats aggregates queue and service counters.
type ControllerStats struct {
	Accepted  uint64
	Rejected  uint64 // offered while the queue was full
	Issued    uint64
	Completed uint64
	// PerCoreServed counts completed transactions per core.
	PerCoreServed []uint64
	// QueueOccupancySum accumulates queue length every cycle for mean
	// occupancy reporting.
	QueueOccupancySum uint64
	Cycles            uint64
}

// MeanOccupancy returns the average queue depth over the run.
func (s ControllerStats) MeanOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.QueueOccupancySum) / float64(s.Cycles)
}

// NewController returns a controller over channel with the given scheduler
// and queue depth (0 means DefaultQueueDepth), serving cores cores.
func NewController(channel *dram.Channel, sched Scheduler, depth, cores int) *Controller {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	g := channel.Geometry()
	return &Controller{
		channel:      channel,
		scheduler:    sched,
		depth:        depth,
		egress:       make([]mem.RespPort, cores),
		prio:         make([]int, cores),
		prioUntil:    make([]sim.Cycle, cores),
		stats:        ControllerStats{PerCoreServed: make([]uint64, cores)},
		bankQueued:   make([]int32, g.RanksPerChannel*g.BanksPerRank),
		banksPerRank: g.BanksPerRank,
	}
}

// bankSlot returns req's index into bankQueued, decoding (memoized) if
// needed.
func (c *Controller) bankSlot(req *mem.Request) int {
	if !req.Dec.OK {
		c.channel.AddrMap().DecodeReq(req)
	}
	return req.Dec.Rank*c.banksPerRank + req.Dec.Bank
}

// rebuildBankQueued recomputes the per-bank demand counts from the queue.
// Checkpoint restore calls it: the counts are derived state.
func (c *Controller) rebuildBankQueued() {
	for i := range c.bankQueued {
		c.bankQueued[i] = 0
	}
	for _, req := range c.queue {
		c.bankQueued[c.bankSlot(req)]++
	}
	c.nextPickAt = 0
}

// SetEgress connects core's completion port (the response shaper or the
// response NoC input).
func (c *Controller) SetEgress(core int, port mem.RespPort) { c.egress[core] = port }

// Scheduler returns the active policy.
func (c *Controller) Scheduler() Scheduler { return c.scheduler }

// Stats returns a copy of the controller's counters, folding the lazy
// occupancy accounting up to the last observed cycle first.
func (c *Controller) Stats() ControllerStats {
	c.fold(c.lastSeen)
	s := c.stats
	s.PerCoreServed = append([]uint64(nil), c.stats.PerCoreServed...)
	return s
}

// QueueLen returns the current transaction queue depth.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Outstanding returns the number of transactions inside the controller:
// queued plus issued-but-not-retired. The forward-progress watchdog folds
// it into the system's total in-flight count.
func (c *Controller) Outstanding() int { return len(c.queue) + len(c.inflight) }

// ForEachRequest visits every request the controller holds: queued
// transactions and issued ones awaiting completion. Checkpoint restore
// uses it to rebuild MSHR aliasing.
func (c *Controller) ForEachRequest(fn func(*mem.Request)) {
	for _, req := range c.queue {
		fn(req)
	}
	for _, cp := range c.inflight {
		fn(cp.req)
	}
}

// TrySend implements mem.ReqPort: the request NoC delivers transactions
// here. It returns false when the transaction queue is full.
func (c *Controller) TrySend(now sim.Cycle, req *mem.Request) bool {
	if c.Full() {
		c.stats.Rejected++
		return false
	}
	c.wake.Wake()
	// The queue length is about to change: fold the occupancy integral
	// through the previous cycle. Cycle now itself is sampled at this
	// cycle's issue (or a later fold), after all arrivals have landed —
	// exactly what the eager per-tick sample observed.
	if now > 0 {
		c.fold(now - 1)
	}
	req.ArrivedMC = now
	c.queue = append(c.queue, req)
	c.stats.Accepted++
	c.bankQueued[c.bankSlot(req)]++
	// The arrival may be issuable before the memoized gate wake: pull the
	// wake forward to its bank's readiness (NeverWake while in flight —
	// that bank's completion resets the gate below).
	if at := c.channel.BankReadyAt(req); at < c.nextPickAt {
		c.nextPickAt = at
	}
	return true
}

// Full reports whether the transaction queue refuses offers.
func (c *Controller) Full() bool { return len(c.queue) >= c.depth }

// Refused counts n offers refused while the queue was full, at once: a
// parked request link replays its refused deliveries through it.
func (c *Controller) Refused(n uint64) { c.stats.Rejected += n }

// Elevate raises core's scheduling priority to level until cycle until.
// Response Camouflage uses it to accelerate a core whose response rate has
// fallen below its target distribution; MISE uses it for
// highest-priority-mode profiling epochs.
func (c *Controller) Elevate(core, level int, until sim.Cycle) {
	if core < 0 || core >= len(c.prio) {
		return
	}
	c.prio[core] = level
	c.prioUntil[core] = until
	if c.kernel != nil {
		// Schedule the expiry instead of scanning every tick. Events fire
		// at the start of their cycle, before any component ticks — the
		// same point the per-tick scan cleared expired levels. An
		// already-expired deadline still gets a next-cycle event so the
		// clear happens where the scan would have performed it.
		at := until
		if now := c.kernel.Now(); at <= now {
			at = now + 1
		}
		c.kernel.ScheduleEvent(at, c.handler, evPrioExpire, uint64(core))
	}
}

// Priority returns core's current priority level.
func (c *Controller) Priority(core int) int {
	if core < 0 || core >= len(c.prio) {
		return 0
	}
	return c.prio[core]
}

// NextWake implements sim.NextWaker. The controller next acts at the
// earliest of: the pick gate opening (nextPickAt) while transactions are
// queued, the earliest in-flight completion, and in standalone mode the
// earliest pending priority expiry — skipping past an expiry would leave
// a stale elevated priority visible in a checkpoint that a stepped run
// would have cleared. While the gate is closed no scheduler can pick, so
// the wait is policy-independent; once it opens the scheduler is
// consulted every cycle (policies like temporal partitioning are
// time-dependent, so no cheap bound exists). An arrival or a completion
// can open the gate early, and both go through a Tick or a wake.
func (c *Controller) NextWake(now sim.Cycle) sim.Cycle {
	w := sim.NeverWake
	if len(c.queue) > 0 {
		if c.nextPickAt <= now+1 {
			return now + 1
		}
		w = c.nextPickAt
	}
	if len(c.inflight) > 0 {
		at := c.inflight[0].at
		if at <= now {
			return now + 1 // egress-blocked completion retrying
		}
		if at < w {
			w = at
		}
	}
	if c.kernel == nil {
		// Standalone mode expires priorities inside Tick, so pending
		// deadlines bound the skip. Under a kernel the scheduled expiry
		// events bound it instead (the kernel never jumps past an event).
		for i := range c.prio {
			if c.prio[i] != 0 {
				u := c.prioUntil[i]
				if u <= now {
					return now + 1
				}
				if u < w {
					w = u
				}
			}
		}
	}
	return w
}

// Skip implements sim.Skipper: the queue is untouched across a skipped
// span, so only the lazy-fold watermark advances — the occupancy integral
// for the span is folded at the next mutation or Stats call.
func (c *Controller) Skip(from, to sim.Cycle) {
	c.lastSeen = to
}

// Tick advances the controller one cycle: expire priority elevations
// (standalone mode only — attached controllers get typed expiry events),
// retire finished bursts to egress, then issue at most one transaction.
func (c *Controller) Tick(now sim.Cycle) {
	c.lastSeen = now

	if c.kernel == nil {
		for i := range c.prio {
			if c.prio[i] != 0 && now >= c.prioUntil[i] {
				c.prio[i] = 0
			}
		}
	}

	// Retire completions in order. Egress backpressure (a full response
	// shaper queue) leaves that completion pending and its bank busy —
	// the "prevent overflow on the return channel" coupling the paper
	// describes — but other cores' completions retire past it, so one
	// shaped core cannot head-of-line block its neighbours.
	for i := 0; i < len(c.inflight); {
		cp := c.inflight[i]
		if cp.at > now {
			break
		}
		port := c.egress[cp.req.Core]
		if port != nil && !port.TrySend(now, cp.req) {
			i++
			continue
		}
		c.channel.Complete(cp.req)
		// The freed bank may unblock a queued transaction earlier than
		// the memoized gate wake.
		if c.bankQueued[c.bankSlot(cp.req)] > 0 {
			if at := c.channel.BankReadyAt(cp.req); at < c.nextPickAt {
				c.nextPickAt = at
			}
		}
		c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
		c.stats.Completed++
		if cp.req.Core >= 0 && cp.req.Core < len(c.stats.PerCoreServed) {
			c.stats.PerCoreServed[cp.req.Core]++
		}
	}

	if len(c.queue) == 0 {
		return
	}
	// Policy-independent pre-gate: when no queued transaction's bank can
	// accept a command, every scheduler's Pick returns -1, so skip the
	// per-request scan and memoize the earliest cycle that could change.
	if now < c.nextPickAt {
		return
	}
	can, wake := c.channel.EarliestDemandIssue(now, c.bankQueued)
	if !can {
		c.nextPickAt = wake
		return
	}
	pick := c.scheduler.Pick(now, c.queue, c.channel, c.prio)
	if pick < 0 {
		return
	}
	c.fold(now) // queue length changes below; sample this cycle first
	if c.Full() {
		c.space.Arm()
	}
	req := c.queue[pick]
	c.bankQueued[c.bankSlot(req)]--
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	req.IssuedDRAM = now
	done := c.channel.Issue(now, req)
	req.ReadyAt = done
	c.insertCompletion(completion{at: done, req: req})
	c.stats.Issued++
}

func (c *Controller) insertCompletion(cp completion) {
	i := sort.Search(len(c.inflight), func(i int) bool { return c.inflight[i].at > cp.at })
	c.inflight = append(c.inflight, completion{})
	copy(c.inflight[i+1:], c.inflight[i:])
	c.inflight[i] = cp
}
