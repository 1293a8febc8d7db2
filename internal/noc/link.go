// Package noc models the shared on-chip channel between processor cores
// and the memory controller — the paper's shared channels SC1 (cores to
// controller) and SC5 (controller back to cores). The model is a shared
// link: per-core bounded input queues, round-robin arbitration for a fixed
// number of transfers per cycle, and a fixed pipeline latency. Contention
// at the arbiter is precisely the cross-core interference an adversary can
// observe, and the link's entry point is where the pin/bus monitoring tap
// sits.
package noc

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// Tap observes every transaction crossing the link at its injection time.
// The bus-monitoring adversary and the distribution-measurement probes are
// Taps.
type Tap func(now sim.Cycle, req *mem.Request)

// FaultAction is what a fault hook does to a transaction entering the link.
type FaultAction uint8

// Fault hook outcomes.
const (
	// FaultNone passes the transaction through unharmed.
	FaultNone FaultAction = iota
	// FaultDrop loses the transaction inside the link.
	FaultDrop
	// FaultDelay holds the transaction (and everything behind it) for the
	// returned number of extra cycles.
	FaultDelay
	// FaultDuplicate injects a second copy of the transaction.
	FaultDuplicate
)

// FaultHook decides, for each transaction after it has passed the taps,
// whether the link misbehaves. It returns the action and, for FaultDelay,
// the extra latency in cycles. Hooks run after the taps so observers (the
// adversary, the flow-conservation checker) see the injection and can
// detect the loss downstream.
type FaultHook func(now sim.Cycle, req *mem.Request) (FaultAction, sim.Cycle)

// Link is a shared, arbitrated, fixed-latency channel.
type Link struct {
	name    string
	latency sim.Cycle
	width   int

	inputs []*mem.Queue
	pipe   *mem.DelayPipe
	route  func(req *mem.Request) mem.ReqPort
	taps   []Tap
	fault  FaultHook

	rr int

	stats LinkStats
}

// LinkStats counts link activity.
type LinkStats struct {
	Injected  uint64
	Delivered uint64
	// StallCycles counts cycles in which the head of the pipe was mature
	// but its destination refused delivery.
	StallCycles uint64
	// PerCoreInjected counts injections per input.
	PerCoreInjected []uint64
	// Dropped, Delayed and Duplicated count fault-hook interventions.
	Dropped    uint64
	Delayed    uint64
	Duplicated uint64
}

// NewLink returns a link named name with cores input queues of capacity
// inputCap each (0 = unbounded), the given one-way latency, and width
// transfers accepted per cycle.
func NewLink(name string, cores, inputCap int, latency sim.Cycle, width int) *Link {
	if cores <= 0 {
		panic("noc: NewLink with no inputs")
	}
	if width <= 0 {
		width = 1
	}
	l := &Link{
		name:    name,
		latency: latency,
		width:   width,
		pipe:    mem.NewDelayPipe(latency),
		stats:   LinkStats{PerCoreInjected: make([]uint64, cores)},
	}
	l.inputs = make([]*mem.Queue, cores)
	for i := range l.inputs {
		l.inputs[i] = mem.NewQueue(inputCap)
	}
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Input returns core's injection port. Senders use TrySend; a false return
// is the backpressure that stalls the sender.
func (l *Link) Input(core int) *mem.Queue { return l.inputs[core] }

// SetWake installs the link's handle on its kernel slot: every input
// queue arms it when a sender's TrySend enqueues. Skip never reads the
// inputs, so the arrival need not fold the link's skipped span first.
func (l *Link) SetWake(w sim.WakeHandle) {
	for _, q := range l.inputs {
		q.SetWake(w)
	}
}

// SetRoute installs the delivery function mapping a transaction to its
// destination port. For the request link this is constant (the memory
// controller); for the response link it demultiplexes on req.Core.
func (l *Link) SetRoute(route func(req *mem.Request) mem.ReqPort) { l.route = route }

// AddTap registers an observer of injected transactions.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetFaultHook installs a fault injector on the link (nil removes it).
func (l *Link) SetFaultHook(h FaultHook) { l.fault = h }

// Outstanding returns the number of transactions inside the link: queued
// at the inputs or in flight in the pipe. The forward-progress watchdog
// folds it into the system's total in-flight count.
func (l *Link) Outstanding() int {
	n := l.pipe.Len()
	for _, q := range l.inputs {
		n += q.Len()
	}
	return n
}

// ForEachRequest visits every request inside the link: queued at the
// inputs or in flight in the pipe. Checkpoint restore uses it to rebuild
// MSHR aliasing.
func (l *Link) ForEachRequest(fn func(*mem.Request)) {
	for _, q := range l.inputs {
		q.ForEach(fn)
	}
	l.pipe.ForEach(fn)
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats {
	s := l.stats
	s.PerCoreInjected = append([]uint64(nil), l.stats.PerCoreInjected...)
	return s
}

// BulkRefuser is a receiver that lets a refused link sleep: while Full
// it refuses every offer, Refused counts n refused offers at once, and
// it arms the link (sim.WakeHandle.Arm) when it frees a slot. The
// memory controller is one.
type BulkRefuser interface {
	Full() bool
	Refused(n uint64)
}

// NextWake implements sim.NextWaker. A link whose mature head is refused
// by a full BulkRefuser, with the pipe at capacity so the arbiter grants
// nothing, parks: every Tick until the receiver frees a slot (and arms
// the link) is a refusal Skip replays. Otherwise anything queued at an
// input wants arbitration next cycle; an in-flight pipe wakes when its
// head matures (a mature head that could not deliver retries every
// cycle). An empty link only acts when a sender injects, and the input
// queue's TrySend arms it.
func (l *Link) NextWake(now sim.Cycle) sim.Cycle {
	if l.pipe.Len() >= l.capacity() {
		if head := l.pipe.Ready(now); head != nil {
			if r, ok := l.route(head).(BulkRefuser); ok && r.Full() {
				return sim.NeverWake
			}
		}
	}
	for _, q := range l.inputs {
		if q.Len() > 0 {
			return now + 1
		}
	}
	if ready, ok := l.pipe.NextReady(); ok {
		if ready <= now {
			return now + 1
		}
		return ready
	}
	return sim.NeverWake
}

// Skip implements sim.Skipper: an idle tick still rotates the
// round-robin pointer, and with the pipe at capacity it counts a stall
// cycle (the arbiter refuses before it looks at the inputs), so a
// skipped span must do both by the span length to keep fast-path state
// (and checkpoints) byte-identical to a stepped run. A head already
// mature at the span's start means the link was parked on its receiver
// (an idle link is due when its head matures): each tick of the span
// also offered the head, was refused, and counted a stall.
func (l *Link) Skip(from, to sim.Cycle) {
	span := to - from + 1
	if head := l.pipe.Ready(from); head != nil {
		l.stats.StallCycles += uint64(span)
		l.route(head).(BulkRefuser).Refused(uint64(span))
	}
	if l.pipe.Len() >= l.capacity() {
		l.stats.StallCycles += uint64(span)
	}
	n := len(l.inputs)
	l.rr = (l.rr + int(span%sim.Cycle(n))) % n
}

// capacity is the most transfers the pipe holds before the arbiter
// stops granting.
func (l *Link) capacity() int { return int(l.latency+1) * l.width }

// Tick advances the link one cycle: deliver matured transactions (in
// order, stopping at backpressure), then arbitrate new injections
// round-robin across the input queues.
func (l *Link) Tick(now sim.Cycle) {
	if l.route == nil {
		panic(fmt.Sprintf("noc: link %q ticked without a route", l.name))
	}
	for {
		head := l.pipe.Ready(now)
		if head == nil {
			break
		}
		if !l.route(head).TrySend(now, head) {
			l.stats.StallCycles++
			break
		}
		l.pipe.Pop(now)
		l.stats.Delivered++
	}

	// The pipe models fixed-latency wires plus one cycle of staging at
	// the channel entry: it can hold at most width transfers per stage.
	// When deliveries stall long enough to fill that, the arbiter stops
	// granting — the backpressure a real shared channel asserts —
	// instead of buffering unboundedly inside the wires. A stall-free
	// link never reaches the bound, so uncongested runs are unaffected.
	capacity := l.capacity()
	granted := 0
	n := len(l.inputs)
	for scanned := 0; scanned < n && granted < l.width; scanned++ {
		if l.pipe.Len() >= capacity {
			l.stats.StallCycles++
			break
		}
		idx := (l.rr + scanned) % n
		req := l.inputs[idx].Pop()
		if req == nil {
			continue
		}
		l.stats.Injected++
		l.stats.PerCoreInjected[idx]++
		for _, t := range l.taps {
			t(now, req)
		}
		action, extra := FaultNone, sim.Cycle(0)
		if l.fault != nil {
			action, extra = l.fault(now, req)
		}
		switch action {
		case FaultDrop:
			l.stats.Dropped++
		case FaultDelay:
			l.stats.Delayed++
			l.pipe.PushAfter(now, extra, req)
		case FaultDuplicate:
			l.stats.Duplicated++
			l.pipe.Push(now, req)
			dup := *req
			l.pipe.Push(now, &dup)
		default:
			l.pipe.Push(now, req)
		}
		granted++
	}
	l.rr = (l.rr + 1) % n
}
