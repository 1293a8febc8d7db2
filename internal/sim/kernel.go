// Package sim provides the cycle-stepped simulation kernel shared by every
// substrate in the Camouflage reproduction: a monotonically advancing clock,
// tickable components, a deterministic pseudo-random source, and a typed
// event scheduler for components that prefer timer-style wakeups over
// per-cycle polling.
//
// The kernel is cycle-stepped rather than event-driven because the two most
// timing-sensitive subsystems — the DDR3 state machines in package dram and
// the credit-replenishment logic in package shaper — naturally advance once
// per memory-clock cycle. A tick kernel keeps their state machines flat and
// makes whole-system runs bit-for-bit deterministic.
package sim

import (
	"fmt"
	"sort"
)

// Cycle is a simulated clock cycle. The whole system runs on a single clock
// domain (the paper simulates a 2.4 GHz core with DDR3-1333 memory; we fold
// the frequency ratio into the DRAM timing parameters instead of running two
// clock domains, which keeps cross-domain queues trivial).
type Cycle uint64

// Tickable is a component that advances one cycle at a time. Components are
// ticked in registration order, which the system assembler uses to fix a
// producer-before-consumer order within a cycle.
type Tickable interface {
	// Tick advances the component to the given cycle.
	Tick(now Cycle)
}

// TickFunc adapts a function to the Tickable interface.
type TickFunc func(now Cycle)

// Tick implements Tickable.
func (f TickFunc) Tick(now Cycle) { f(now) }

// NeverWake is the NextWake return value of a component with no future
// work of its own: it only acts again when another component wakes it
// (a request arriving on a queue, a bank freeing) or an event fires.
const NeverWake = Cycle(1<<64 - 1)

// NextWaker is the optional idle hint. A component that implements it
// promises that between now (exclusive) and NextWake(now) (exclusive)
// its Tick is a pure bulk-accountable no-op — no queue moves, no message
// is produced or consumed, no decision is taken — unless another
// component wakes it first (see WakeHandle). The kernel then ticks the
// component only on cycles when it is due and folds the cycles in
// between into one Skip call (if implemented).
//
// The contract is asymmetric. Returning an EARLY wake (any value down
// to now+1) is always correct — the kernel simply ticks the component
// again, which is what cycle stepping does on every cycle. Returning a
// LATE wake is a correctness bug: the kernel would not tick the
// component on a cycle where it wanted to act, and the run would
// diverge from a cycle-stepped one. When a component cannot cheaply
// bound its next interesting cycle it must return now+1, never a guess.
//
// The hint only covers the component's self-driven work. Work that
// another component hands it (a push into its queue, a bank freed under
// it, a slot freed in a queue it is parked on) reaches the kernel
// through the component's WakeHandle, which the mutator calls first.
//
// Per-component scheduling only engages when every registered
// component implements NextWaker; a single hint-less component pins the
// kernel to cycle-stepped mode.
type NextWaker interface {
	// NextWake returns the earliest cycle at which the component's Tick
	// may do something observable, or NeverWake if it has no
	// self-driven future work. Values <= now mean "tick me next cycle".
	NextWake(now Cycle) Cycle
}

// Skipper is the optional bulk-accounting hook paired with NextWaker.
// When the kernel did not tick a component over the span [from, to]
// (inclusive on both ends), it calls Skip exactly once for the span
// before the component's next Tick, before a wake lets another
// component mutate it, and at every Sync. Skip must leave the component
// in the byte-identical state that to-from+1 no-op Ticks would have:
// counters that increment every cycle advance by the span length,
// round-robin pointers rotate by it, and so on. Skip may branch on the
// component's state, because that state is exactly what the skipped
// Ticks would have seen. Components whose idle Tick mutates nothing at
// all need not implement Skipper.
type Skipper interface {
	Skip(from, to Cycle)
}

// WakeHandle is a component's handle on its own slot in a kernel's
// schedule. Code outside the component calls Wake immediately before it
// mutates the component (a push into its queue, a command that frees or
// occupies its resources): Wake folds the cycles the component was not
// ticked into its Skip, so Skip sees the pre-mutation state, and makes
// the component due again. Arm makes it due without the fold, for a
// change Skip does not read. A component woken by an earlier-registered
// component (or an event handler) still ticks in the current cycle; one
// woken by a later-registered component, or between runs, ticks in the
// next — exactly where a cycle-stepped run would first tick it after the
// mutation.
//
// The handle reaches its kernel through a pointer to the owner's kernel
// field, read at call time, so an owner that moves its components onto
// a new kernel (registered in the same order) keeps every handle valid.
// The zero handle does nothing: standalone components need no kernel.
type WakeHandle struct {
	k    **Kernel
	slot int
}

// NewWakeHandle returns the handle for the component registered at slot
// (Register's return value) in the kernel *k points to.
func NewWakeHandle(k **Kernel, slot int) WakeHandle { return WakeHandle{k: k, slot: slot} }

// Wake re-arms the component; see WakeHandle. It is a no-op unless the
// kernel schedules per component.
func (w WakeHandle) Wake() {
	if w.k != nil {
		if k := *w.k; k.sched {
			k.wake(w.slot, true)
		}
	}
}

// Arm makes the component due again, exactly where Wake would, but
// leaves its skipped span unfolded: the kernel folds it into Skip just
// before the component's next Tick. Use it for a change that Skip does
// not read (a downstream queue freeing a slot for a sender parked on it,
// a push into a queue the component's Skip ignores), so Skip may still
// assume the state the component parked in held for the whole span.
func (w WakeHandle) Arm() {
	if w.k != nil {
		if k := *w.k; k.sched {
			k.wake(w.slot, false)
		}
	}
}

// SteppedThrough returns the last cycle whose Tick a cycle-stepped run
// would already have given the component at this point of the current
// cycle: the current cycle when the component comes earlier in tick
// order than the code now running (or that code runs between cycles),
// the previous cycle when it comes later (or an event handler is
// running). A component that settles what it owes for skipped cycles
// before another one observes it (see mem.IDSource) settles through
// this cycle. ok is false unless the kernel schedules per component;
// a stepped kernel leaves no component behind.
func (w WakeHandle) SteppedThrough() (c Cycle, ok bool) {
	if w.k == nil {
		return 0, false
	}
	k := *w.k
	if !k.sched {
		return 0, false
	}
	if w.slot < k.cursor || k.now == 0 {
		return k.now, true
	}
	return k.now - 1, true
}

// EventKind is a component-defined discriminator for typed events. Kinds
// are scoped to the receiving handler: two handlers may reuse the same
// numeric kind for unrelated purposes without colliding.
type EventKind uint16

// HandlerID names an EventHandler registered with RegisterHandler. IDs are
// dense indices assigned in registration order, which makes them stable
// across a checkpoint/restore pair as long as the restoring process
// registers the same handlers in the same order — the same contract
// Register already imposes on Tickables.
type HandlerID int32

// EventHandler consumes typed events scheduled with ScheduleEvent. Events
// are plain data (kind + one argument word), not closures: they allocate
// nothing when scheduled, they cannot retain captured objects after
// firing, and — unlike closures — they serialize, so a checkpoint can be
// taken while events are pending.
type EventHandler interface {
	HandleEvent(now Cycle, kind EventKind, arg uint64)
}

// EventHandlerFunc adapts a function to the EventHandler interface.
type EventHandlerFunc func(now Cycle, kind EventKind, arg uint64)

// HandleEvent implements EventHandler.
func (f EventHandlerFunc) HandleEvent(now Cycle, kind EventKind, arg uint64) { f(now, kind, arg) }

// event is a scheduled typed event. It is plain old data — no pointers —
// so the heap never retains simulation objects and pending events can be
// written to a checkpoint verbatim.
type event struct {
	at      Cycle
	seq     uint64 // tie-break so same-cycle events fire in schedule order
	handler HandlerID
	kind    EventKind
	arg     uint64
}

// Kernel owns the clock and drives all registered components.
type Kernel struct {
	now      Cycle
	slots    []slot
	events   eventHeap
	handlers []EventHandler
	seq      uint64
	rng      *RNG
	stopped  bool

	// sched reports whether the per-component schedule is live: the
	// fast path is not disabled and every component has a wake hint
	// (allHinted). Only then are the slots' due/last maintained and
	// wakes honored.
	allHinted    bool
	fastDisabled bool
	sched        bool

	// cursor is the index of the slot ticking right now: -1 while the
	// cycle's events fire, outside between cycles. A wake compares its
	// slot against it to tell whether the woken component still ticks
	// in this cycle.
	cursor int
	// next is the earliest due cycle over all slots, maintained as each
	// cycle runs (and by wakes), so a jump needs no sweep. unpolled marks
	// slots (new, restored, or back from stepping) whose hint the next
	// Advance must take first.
	next     Cycle
	unpolled bool
	// synced is the cycle of the last Sync. Until the clock moves on, no
	// slot can fall behind again, so a second Sync has nothing to fold.
	synced Cycle

	// skipped and jumps are observability-only: they describe how the
	// clock advanced, not where it is, so they are deliberately absent
	// from Snapshot — a fast-path run and a stepped run must produce
	// byte-identical checkpoints.
	skipped Cycle
	jumps   uint64
}

// slot is one registered component and its place in the schedule. due,
// last, streak and holdoff only shape when the component is ticked, not
// what it computes, so none of them is checkpoint state.
type slot struct {
	c  Tickable
	w  NextWaker // nil for a hint-less component
	sk Skipper   // nil when idle ticks mutate nothing
	// due is the next cycle the component must tick; last is the latest
	// cycle folded into it, by a Tick or a Skip.
	due, last Cycle
	// streak/holdoff throttle hint polling while the component stays
	// busy: each hint of now+1 doubles the streak (capped), and the
	// kernel then ticks the component that many cycles without asking.
	// Ticking early is always correct, so this trades at most
	// maxHintHoldoff no-op ticks for O(1) amortized hint cost.
	streak, holdoff uint32
}

// maxHintHoldoff bounds how many cycles a busy component is ticked
// without polling its hint (and therefore how late an idle span of that
// component can be noticed).
const maxHintHoldoff = 32

// outside is the cursor value between cycles: every slot counts as
// already ticked.
const outside = int(^uint(0) >> 1)

// NewKernel returns a kernel whose random source is seeded with seed.
// The same seed always reproduces the same simulation.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed), allHinted: true, sched: true, cursor: outside}
}

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// RNG returns the kernel's deterministic random source. All simulation
// randomness (fake-request addresses, GA mutation, workload generation)
// must flow through it.
func (k *Kernel) RNG() *RNG { return k.rng }

// Register adds a component to the tick list and returns its slot, the
// index NewWakeHandle takes. Components tick in registration order.
// Components implementing NextWaker (and optionally Skipper) are ticked
// only when due; one component without the hint keeps the whole kernel
// cycle-stepped.
func (k *Kernel) Register(c Tickable) int {
	if c == nil {
		panic("sim: Register(nil)")
	}
	w, hinted := c.(NextWaker)
	sk, _ := c.(Skipper)
	k.slots = append(k.slots, slot{c: c, w: w, sk: sk, due: NeverWake, last: k.now})
	k.unpolled = true
	if !hinted {
		k.allHinted = false
	}
	k.setSched()
	return len(k.slots) - 1
}

// setSched brings the schedule in line with FastPathEligible: leaving
// it folds every lagging component, entering it restarts every slot
// (resetSlots).
func (k *Kernel) setSched() {
	on := k.FastPathEligible()
	if on == k.sched {
		return
	}
	if on {
		k.resetSlots()
	} else {
		k.Sync()
	}
	k.sched = on
}

// resetSlots marks every component folded through now, with no hint
// holdoff and its hint still to take: the state of a kernel that has
// stepped every cycle so far.
func (k *Kernel) resetSlots() {
	for i := range k.slots {
		s := &k.slots[i]
		s.due, s.last, s.streak, s.holdoff = NeverWake, k.now, 0, 0
	}
	k.unpolled = true
}

// RegisterHandler adds an event handler and returns its ID. Like Register,
// call order defines the ID, so a restored process must register handlers
// in the construction order of the process that wrote the checkpoint.
func (k *Kernel) RegisterHandler(h EventHandler) HandlerID {
	if h == nil {
		panic("sim: RegisterHandler(nil)")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// ScheduleEvent delivers (kind, arg) to handler at cycle at. Scheduling in
// the past (or present) panics: it would silently never fire and always
// indicates a component bug.
func (k *Kernel) ScheduleEvent(at Cycle, handler HandlerID, kind EventKind, arg uint64) {
	if at <= k.now {
		panic(fmt.Sprintf("sim: ScheduleEvent at cycle %d but now is %d", at, k.now))
	}
	if handler < 0 || int(handler) >= len(k.handlers) {
		panic(fmt.Sprintf("sim: ScheduleEvent with unregistered handler %d", handler))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, handler: handler, kind: kind, arg: arg})
}

// ScheduleEventAfter delivers (kind, arg) to handler delay cycles from now.
// delay must be positive.
func (k *Kernel) ScheduleEventAfter(delay Cycle, handler HandlerID, kind EventKind, arg uint64) {
	k.ScheduleEvent(k.now+delay, handler, kind, arg)
}

// Stop makes the current Run return after the cycle in progress completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step advances the simulation by exactly one cycle: the clock increments,
// due events fire (in schedule order), then every component ticks.
func (k *Kernel) Step() {
	if k.sched {
		for i := range k.slots {
			k.slots[i].due = 0
		}
		k.tick()
		return
	}
	k.now++
	k.fireEvents()
	now, slots := k.now, k.slots
	for i := range slots {
		slots[i].c.Tick(now)
	}
}

// fireEvents delivers every event due at the current cycle.
func (k *Kernel) fireEvents() {
	for len(k.events) > 0 && k.events[0].at <= k.now {
		k.fireNext()
	}
}

// fireNext delivers the earliest pending event. It stays out of line so
// that fireEvents inlines into the per-cycle loops.
func (k *Kernel) fireNext() {
	ev := k.events.pop()
	k.handlers[ev.handler].HandleEvent(k.now, ev.kind, ev.arg)
}

// tick runs one scheduled cycle: events fire, then each due component
// (in registration order) gets its lagging span folded into Skip, ticks,
// and has its next due cycle set from its hint.
func (k *Kernel) tick() {
	k.now++
	now := k.now
	k.cursor = -1
	k.fireEvents()
	k.next = NeverWake
	next := NeverWake
	slots := k.slots
	for i := range slots {
		s := &slots[i]
		if s.due <= now {
			k.cursor = i
			if s.last+1 < now {
				s.fold(now - 1)
			}
			s.c.Tick(now)
			s.last = now
			if s.holdoff > 0 {
				s.holdoff--
				s.due = now + 1
			} else if w := s.w.NextWake(now); w > now+1 {
				s.streak = 0
				s.due = w
			} else {
				s.streak = min(max(2*s.streak, 1), maxHintHoldoff)
				s.holdoff = s.streak
				s.due = now + 1
			}
		}
		if s.due < next {
			next = s.due
		}
	}
	k.cursor = outside
	if next < k.next {
		k.next = next
	}
}

// fold bulk-accounts the cycles after s.last through to as skipped.
func (s *slot) fold(to Cycle) {
	if s.sk != nil {
		s.sk.Skip(s.last+1, to)
	}
	s.last = to
}

// wake implements WakeHandle.Wake (fold) and WakeHandle.Arm (no fold)
// for slot i.
func (k *Kernel) wake(i int, fold bool) {
	s := &k.slots[i]
	now := k.now
	switch {
	case i > k.cursor:
		// Still ahead in this cycle's tick order: fold the cycles before
		// this one and tick it now.
		if fold && s.last+1 < now {
			s.fold(now - 1)
		}
		if s.due > now {
			s.due = now
		}
	case i < k.cursor:
		// Already passed (or between cycles): this cycle's tick would
		// have run before the mutation, so fold it and tick next cycle.
		if fold && s.last < now {
			s.fold(now)
		}
		if s.due > now+1 {
			s.due = now + 1
		}
		if now+1 < k.next {
			k.next = now + 1
		}
	}
	// i == k.cursor: the component is mutating itself mid-Tick, and its
	// hint is taken after that Tick.
}

// Sync folds every component the schedule left behind through the
// current cycle, so each one's state is exactly that of a cycle-stepped
// run. Call it before reading component state from outside a cycle:
// Run does at its end; the supervised run path does before grid-point
// work and on exit.
func (k *Kernel) Sync() {
	if !k.sched || k.synced == k.now {
		return
	}
	k.synced = k.now
	for i := range k.slots {
		if s := &k.slots[i]; s.last < k.now {
			s.fold(k.now)
		}
	}
}

// poll syncs, then lowers every component's due cycle to its current
// hint where that is sooner. Wakes already armed stay: a component woken
// before its hint is taken must still tick where the wake put it.
func (k *Kernel) poll() {
	k.unpolled = false
	k.Sync()
	next := NeverWake
	for i := range k.slots {
		s := &k.slots[i]
		w := s.w.NextWake(k.now)
		if w <= k.now {
			w = k.now + 1
		}
		if w < s.due {
			s.due = w
		}
		if s.due < next {
			next = s.due
		}
	}
	k.next = next
}

// SetFastPath enables or disables per-component scheduling (enabled by
// default when every registered component implements NextWaker).
// Disabling forces classic cycle-by-cycle stepping — the reference mode
// the differential tests compare against.
func (k *Kernel) SetFastPath(on bool) {
	k.fastDisabled = !on
	k.setSched()
}

// FastPathEligible reports whether per-component scheduling can engage:
// it is not disabled and every registered component provides a wake
// hint.
func (k *Kernel) FastPathEligible() bool {
	return !k.fastDisabled && k.allHinted
}

// SkippedCycles returns how many cycles passed with no component due
// and no event firing, over the kernel's lifetime. Observability only —
// not checkpoint state.
func (k *Kernel) SkippedCycles() Cycle { return k.skipped }

// Jumps returns how many clock jumps the fast path has taken.
// Observability only — not checkpoint state.
func (k *Kernel) Jumps() uint64 { return k.jumps }

// Advance moves the simulation forward by at most limit cycles and
// returns how many it covered. Under per-component scheduling, when no
// component is due and no event fires before some later cycle, the
// clock jumps straight to the cycle before it and then runs that cycle,
// ticking only the components due in it. Otherwise it runs a single
// cycle. Either way the resulting state is byte-identical to stepping
// every cycle once the lagging components are folded (Sync).
func (k *Kernel) Advance(limit Cycle) Cycle {
	if limit == 0 {
		return 0
	}
	if !k.sched {
		k.Step()
		return 1
	}
	if k.unpolled {
		k.poll()
	}
	next := k.next
	if len(k.events) > 0 && k.events[0].at < next {
		next = k.events[0].at
	}
	if next > k.now+1 {
		end := k.now + limit
		target := next - 1
		if target > end {
			target = end
		}
		n := target - k.now
		k.now = target
		k.skipped += n
		k.jumps++
		if k.now >= end {
			return n
		}
		k.tick()
		return n + 1
	}
	k.tick()
	return 1
}

// Run advances the simulation n cycles, or fewer if Stop is called, and
// syncs. It returns the number of cycles actually simulated (skipped
// idle cycles count: they were simulated, just in bulk).
func (k *Kernel) Run(n Cycle) Cycle {
	k.stopped = false
	var done Cycle
	for done < n && !k.stopped {
		done += k.Advance(n - done)
	}
	k.Sync()
	return done
}

// RunUntil steps the simulation until pred returns true, Stop is
// called, or limit cycles have elapsed, and reports whether pred was
// satisfied. Like Run it honors Stop: a watchdog or checker calling
// Stop mid-cycle ends the loop after that cycle completes. It always
// steps cycle-by-cycle — pred may observe any intermediate state, so
// every component must be current after every cycle.
func (k *Kernel) RunUntil(pred func() bool, limit Cycle) bool {
	k.stopped = false
	k.Sync()
	for i := Cycle(0); i < limit && !k.stopped; i++ {
		if pred() {
			return true
		}
		k.Step()
	}
	return pred()
}

// PendingEvents reports how many scheduled events have not yet fired.
func (k *Kernel) PendingEvents() int { return len(k.events) }

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than using container/heap to avoid interface boxing on the
// simulator's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	// Events are plain data, so the vacated tail slot retains nothing;
	// zeroing it is cheap insurance against stale entries confusing a
	// debugger. (When events held closures this zeroing was a correctness
	// fix — a popped closure stayed reachable through the backing array.)
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// sortedEventCycles returns the cycles of all pending events in firing order.
// It exists for tests and debugging.
func (k *Kernel) sortedEventCycles() []Cycle {
	out := make([]Cycle, len(k.events))
	for i, ev := range k.events {
		out[i] = ev.at
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
