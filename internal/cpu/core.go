// Package cpu implements the trace-driven processor core model. The
// paper's evaluation uses a 4-wide out-of-order core with a 128-entry
// instruction window; what matters for every experiment is how memory
// latency converts into lost progress, which this model captures with
// three mechanisms: a bounded set of outstanding misses (the cache's
// MSHRs), blocking (dependent) loads the core cannot run past, and
// backpressure from the request shaper (the Camouflage stall signal).
//
// Progress is measured in work units: one unit per compute cycle consumed
// plus one per memory reference issued. Running the same trace alone and
// shared gives the slowdown metric the paper reports.
package cpu

import (
	"camouflage/internal/cache"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// Config sizes a core.
type Config struct {
	// Cache is the core's private LLC.
	Cache cache.Config
	// MaxPendingWB bounds buffered dirty writebacks before the core
	// stalls (a small store buffer).
	MaxPendingWB int
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultL2(), MaxPendingWB: 8}
}

// Stats aggregates a core's progress and stall accounting.
type Stats struct {
	Cycles sim.Cycle
	// Work counts committed work units (compute cycles + references).
	Work uint64
	// Refs counts memory references issued to the cache.
	Refs uint64
	// MemStallCycles counts cycles lost to blocking loads or full MSHRs
	// (the numerator of MISE's alpha).
	MemStallCycles sim.Cycle
	// ShaperStallCycles counts cycles the request shaper refused traffic.
	ShaperStallCycles sim.Cycle
	// Responses counts real responses received.
	Responses uint64
	// FakeResponses counts camouflage responses received (and dropped).
	FakeResponses uint64
}

// IPC returns work units per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Cycles)
}

// Alpha returns MISE's memory-stall fraction.
func (s Stats) Alpha() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MemStallCycles) / float64(s.Cycles)
}

// Core is one simulated processor core.
type Core struct {
	id    int
	cfg   Config
	src   trace.Source
	clock trace.Clocked // non-nil when src is wall-clock driven
	cache *cache.Cache
	out   mem.ReqPort

	// current entry state
	entry       trace.Entry
	haveEntry   bool
	computeLeft sim.Cycle
	finished    bool

	// blockedOn is the request ID of a blocking load in flight, 0 if none.
	blockedOn uint64

	// pool, when set, receives every delivered response for reuse. The
	// core is the final consumer of the response path: taps fire at NoC
	// injection and the cache drops its MSHR pointer inside Fill, so by
	// the end of TrySend nothing else may hold the request.
	pool *mem.Pool

	// heldMiss is a miss refused by the downstream port, retried each cycle.
	heldMiss *mem.Request
	// heldBlocking remembers whether heldMiss was a blocking load.
	heldBlocking bool
	pendingWB    []*mem.Request

	stats Stats

	// wake re-arms the core in its kernel's schedule before a response
	// lands (see sim.WakeHandle).
	wake sim.WakeHandle

	// OnResponse, when set, observes every real response delivered to
	// this core (the adversary's response-latency probe).
	OnResponse func(now sim.Cycle, resp *mem.Request)
	// OnDelivered, when set, observes every response — real and fake —
	// after its DeliveredAt stamp is set. This is the lifecycle tracer's
	// hook: at delivery a request carries all seven hop timestamps, so a
	// single callback covers its whole life.
	OnDelivered func(now sim.Cycle, resp *mem.Request)
}

// New returns core id running src, with ids supplying request IDs.
// An invalid cache configuration is reported as an error.
func New(id int, cfg Config, src trace.Source, ids *mem.IDSource) (*Core, error) {
	llc, err := cache.New(cfg.Cache, id, ids)
	if err != nil {
		return nil, err
	}
	c := &Core{
		id:    id,
		cfg:   cfg,
		src:   src,
		cache: llc,
	}
	c.clock, _ = src.(trace.Clocked)
	return c, nil
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// SetOut connects the core's miss stream to downstream (the request shaper
// input or the NoC injection queue).
func (c *Core) SetOut(out mem.ReqPort) { c.out = out }

// SetWake installs the core's handle on its kernel slot. TrySend calls
// it before delivering, so a core parked on a blocking load is ticked
// again from the cycle after the response.
func (c *Core) SetWake(w sim.WakeHandle) { c.wake = w }

// Cache exposes the core's LLC for statistics.
func (c *Core) Cache() *cache.Cache { return c.cache }

// SetPool makes the core recycle delivered responses into pool and its
// cache draw misses and writebacks from it. A nil pool (the default)
// keeps plain allocation.
func (c *Core) SetPool(pool *mem.Pool) {
	c.pool = pool
	c.cache.SetPool(pool)
}

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// ForEachRequest visits every request the core itself holds (a refused
// miss awaiting retry and buffered writebacks). Checkpoint restore uses
// it to rebuild MSHR aliasing.
func (c *Core) ForEachRequest(fn func(*mem.Request)) {
	if c.heldMiss != nil {
		fn(c.heldMiss)
	}
	for _, wb := range c.pendingWB {
		fn(wb)
	}
}

// Finished reports whether a finite trace has been fully consumed.
func (c *Core) Finished() bool { return c.finished }

// TrySend implements mem.RespPort: the response network delivers here.
// The core endpoint always accepts.
func (c *Core) TrySend(now sim.Cycle, resp *mem.Request) bool {
	c.wake.Wake()
	resp.DeliveredAt = now
	if c.OnDelivered != nil {
		c.OnDelivered(now, resp)
	}
	if resp.Fake {
		c.stats.FakeResponses++
		c.pool.Put(resp)
		return true
	}
	c.stats.Responses++
	if c.OnResponse != nil {
		c.OnResponse(now, resp)
	}
	if resp.Op == mem.Read {
		c.cache.Fill(now, resp)
	}
	if c.blockedOn == resp.ID {
		c.blockedOn = 0
	}
	c.pool.Put(resp)
	return true
}

// NextWake implements sim.NextWaker. The core knows its next
// interesting cycle exactly in two long-lived states: a compute phase
// (nothing happens until the countdown ends) and a fully drained,
// finished trace (nothing ever happens again). A blocking load in
// flight also parks the core — the response's delivery (TrySend) wakes
// it, and the cycles in between are pure stall accounting. Anything
// touching a downstream port (held miss, pending writebacks) must retry
// every cycle because acceptance depends on another component's state.
func (c *Core) NextWake(now sim.Cycle) sim.Cycle {
	if c.heldMiss != nil || len(c.pendingWB) > 0 {
		return now + 1
	}
	if c.blockedOn != 0 {
		return sim.NeverWake
	}
	if c.computeLeft > 0 {
		return now + c.computeLeft + 1
	}
	if c.finished {
		return sim.NeverWake
	}
	return now + 1
}

// Skip implements sim.Skipper: bulk-apply the per-cycle accounting that
// to-from+1 idle Ticks would have done. The kernel only skips while
// NextWake's long-lived states hold, so exactly one of the branches
// below matches the whole span.
func (c *Core) Skip(from, to sim.Cycle) {
	n := to - from + 1
	c.stats.Cycles += n
	if c.blockedOn != 0 {
		c.stats.MemStallCycles += n
		return
	}
	if c.computeLeft > 0 {
		c.computeLeft -= n
		c.stats.Work += uint64(n)
	}
	// A finished core only counts cycles.
}

// Tick advances the core one cycle.
func (c *Core) Tick(now sim.Cycle) {
	c.stats.Cycles++

	// Drain one pending writeback per cycle; writebacks yield the port to
	// a held demand miss.
	if c.heldMiss == nil && len(c.pendingWB) > 0 {
		if c.out.TrySend(now, c.pendingWB[0]) {
			// Shift down instead of re-slicing so the backing array is
			// reused: the store buffer is bounded and hot, and a [1:]
			// walk would force a fresh allocation per append cycle.
			n := copy(c.pendingWB, c.pendingWB[1:])
			c.pendingWB[n] = nil
			c.pendingWB = c.pendingWB[:n]
		}
	}

	// Retry a miss the shaper refused.
	if c.heldMiss != nil {
		if !c.out.TrySend(now, c.heldMiss) {
			c.stats.ShaperStallCycles++
			return
		}
		if c.heldBlocking {
			c.blockedOn = c.heldMiss.ID
		}
		c.heldMiss = nil
	}

	// A blocking load in flight freezes the window.
	if c.blockedOn != 0 {
		c.stats.MemStallCycles++
		return
	}

	// Compute phase.
	if c.computeLeft > 0 {
		c.computeLeft--
		c.stats.Work++
		return
	}

	// Fetch the next reference if needed. A finished trace stays
	// finished — the source is not polled again, so an exhausted core's
	// tick is pure accounting and the kernel's fast path can skip it.
	if !c.haveEntry {
		if c.finished {
			return
		}
		if c.clock != nil {
			c.clock.SetNow(now)
		}
		e, ok := c.src.Next()
		if !ok {
			c.finished = true
			return
		}
		c.entry = e
		c.haveEntry = true
		if e.Gap > 0 {
			c.computeLeft = e.Gap
			c.computeLeft--
			c.stats.Work++
			return
		}
	}

	// Pure compute entries issue no reference.
	if c.entry.Idle {
		c.haveEntry = false
		return
	}

	// Too many buffered writebacks: stall the store path.
	if len(c.pendingWB) >= c.cfg.MaxPendingWB {
		c.stats.MemStallCycles++
		return
	}

	// Issue the reference to the cache.
	res, miss, wb := c.cache.Access(now, c.entry.Addr, c.entry.Write)
	switch res {
	case cache.Hit:
		c.stats.Refs++
		c.stats.Work++
		if c.entry.Blocking {
			// A dependent load pays the LLC hit latency.
			c.computeLeft += c.cfg.Cache.HitLatency
		}
		c.haveEntry = false
	case cache.MissIssued:
		if wb != nil {
			c.pendingWB = append(c.pendingWB, wb)
		}
		miss.Blocking = c.entry.Blocking
		c.stats.Refs++
		c.stats.Work++
		if !c.out.TrySend(now, miss) {
			c.heldMiss = miss
			c.heldBlocking = c.entry.Blocking
			c.stats.ShaperStallCycles++
		} else if c.entry.Blocking {
			c.blockedOn = miss.ID
		}
		c.haveEntry = false
	case cache.MissMerged:
		c.stats.Refs++
		c.stats.Work++
		if c.entry.Blocking && miss != nil {
			c.blockedOn = miss.ID
		}
		c.haveEntry = false
	case cache.Blocked:
		c.stats.MemStallCycles++
	}
}
