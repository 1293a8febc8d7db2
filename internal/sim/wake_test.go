package sim

import (
	"slices"
	"testing"
)

// parked is a component with no self-driven work: it acts only on items
// pushed into it, and checks that the kernel folds every cycle it did
// not tick exactly once, in order.
type parked struct {
	t       *testing.T
	wake    WakeHandle
	pending int
	// folded is the latest cycle accounted by a Tick or a Skip.
	folded Cycle
	// ticks lists every Tick, served the cycles whose Tick consumed an
	// item; foldedAtPush records folded at each push.
	ticks, served []Cycle
	foldedAtPush  []Cycle
}

func (p *parked) account(from, to Cycle) {
	if from != p.folded+1 {
		p.t.Errorf("cycles %d..%d accounted after cycle %d", from, to, p.folded)
	}
	p.folded = to
}

func (p *parked) Tick(now Cycle) {
	p.account(now, now)
	p.ticks = append(p.ticks, now)
	if p.pending > 0 {
		p.pending--
		p.served = append(p.served, now)
	}
}

func (p *parked) Skip(from, to Cycle) { p.account(from, to) }

func (p *parked) NextWake(now Cycle) Cycle {
	if p.pending > 0 {
		return now + 1
	}
	return NeverWake
}

// push is another component handing p an item: wake first, then mutate.
func (p *parked) push() {
	p.wake.Wake()
	p.foldedAtPush = append(p.foldedAtPush, p.folded)
	p.pending++
}

// pusher pushes one item into its target at cycle at.
type pusher struct {
	at     Cycle
	target *parked
}

func (s *pusher) Tick(now Cycle) {
	if now == s.at {
		s.target.push()
	}
}

func (s *pusher) NextWake(now Cycle) Cycle {
	if now < s.at {
		return s.at
	}
	return NeverWake
}

// TestWakeFoldsBeforeMutation pins the wake contract for both tick
// orders. A component woken at cycle t by a later-registered component
// has already had its turn in cycle t, so its span is folded through t
// before the push and it serves the item at t+1. One woken by an
// earlier-registered component (or an event handler, which fires before
// any component ticks) is folded through t-1 and serves the item in
// cycle t. Either way it serves the item where a cycle-stepped run
// does.
func TestWakeFoldsBeforeMutation(t *testing.T) {
	const at, cycles = 50, 100
	cases := []struct {
		name       string
		wire       func(k *Kernel, p *parked, kp **Kernel)
		served     Cycle
		foldedPush Cycle
	}{
		{"woken by later component", func(k *Kernel, p *parked, kp **Kernel) {
			p.wake = NewWakeHandle(kp, k.Register(p))
			k.Register(&pusher{at: at, target: p})
		}, at + 1, at},
		{"woken by earlier component", func(k *Kernel, p *parked, kp **Kernel) {
			k.Register(&pusher{at: at, target: p})
			p.wake = NewWakeHandle(kp, k.Register(p))
		}, at, at - 1},
		{"woken by event", func(k *Kernel, p *parked, kp **Kernel) {
			p.wake = NewWakeHandle(kp, k.Register(p))
			h := k.RegisterHandler(EventHandlerFunc(func(Cycle, EventKind, uint64) { p.push() }))
			k.ScheduleEvent(at, h, 0, 0)
		}, at, at - 1},
	}
	for _, tc := range cases {
		for _, fast := range []bool{true, false} {
			k := NewKernel(1)
			p := &parked{t: t}
			tc.wire(k, p, &k)
			k.SetFastPath(fast)
			k.Run(cycles)
			if !slices.Equal(p.served, []Cycle{tc.served}) {
				t.Errorf("%s (fast %v): item served at %v, want [%d]", tc.name, fast, p.served, tc.served)
			}
			if p.folded != cycles {
				t.Errorf("%s (fast %v): folded through %d after Run(%d)", tc.name, fast, p.folded, cycles)
			}
			if fast {
				if !slices.Equal(p.foldedAtPush, []Cycle{tc.foldedPush}) {
					t.Errorf("%s: folded through %v at the push, want [%d]", tc.name, p.foldedAtPush, tc.foldedPush)
				}
				if k.SkippedCycles() == 0 {
					t.Errorf("%s: no cycle skipped", tc.name)
				}
			}
		}
	}
}

// TestWakeHandleFollowsKernelField checks that a handle reads the kernel
// field at call time: after the owner moves the component onto a new
// kernel (same registration order), wakes reach the new kernel.
func TestWakeHandleFollowsKernelField(t *testing.T) {
	k := NewKernel(1)
	p := &parked{t: t}
	p.wake = NewWakeHandle(&k, k.Register(p))
	old := k
	old.Run(10)

	k = NewKernel(1)
	k.now = old.now
	p.folded = k.now
	k.Register(p)
	k.Run(10) // parks p: nothing pending
	p.push()  // between runs: serve next cycle
	k.Run(10)
	if !slices.Equal(p.served, []Cycle{21}) {
		t.Fatalf("item served at %v, want [21]", p.served)
	}
}

// TestPollKeepsArmedWakes checks that taking the hints of new slots
// keeps a wake armed before it: a component woken before the first run
// ticks in the first cycle even though its own hint says it never needs
// to.
func TestPollKeepsArmedWakes(t *testing.T) {
	k := NewKernel(1)
	p := &parked{t: t}
	p.wake = NewWakeHandle(&k, k.Register(p))
	p.wake.Wake()
	k.Run(10)
	if !slices.Equal(p.ticks, []Cycle{1}) {
		t.Fatalf("ticked at %v after a wake at cycle 0, want [1]", p.ticks)
	}
}

// armer arms its target at cycle at without changing it.
type armer struct {
	at     Cycle
	target *parked
	// foldedAtArm records the target's folded cycle at the Arm.
	foldedAtArm Cycle
}

func (a *armer) Tick(now Cycle) {
	if now == a.at {
		a.target.wake.Arm()
		a.foldedAtArm = a.target.folded
	}
}

func (a *armer) NextWake(now Cycle) Cycle {
	if now < a.at {
		return a.at
	}
	return NeverWake
}

// TestArmDefersFold pins WakeHandle.Arm: it makes a parked component due
// exactly where Wake would (the next cycle when armed by a later
// component, this cycle when armed by an earlier one), but folds
// nothing at the Arm itself. The skipped span is folded in one Skip just
// before the component's next Tick.
func TestArmDefersFold(t *testing.T) {
	const at, cycles = 50, 100
	cases := []struct {
		name   string
		later  bool
		ticked Cycle
	}{
		{"armed by later component", true, at + 1},
		{"armed by earlier component", false, at},
	}
	for _, tc := range cases {
		k := NewKernel(1)
		p := &parked{t: t}
		a := &armer{at: at, target: p}
		if tc.later {
			p.wake = NewWakeHandle(&k, k.Register(p))
			k.Register(a)
		} else {
			k.Register(a)
			p.wake = NewWakeHandle(&k, k.Register(p))
		}
		var skips [][2]Cycle
		k.slots[p.wake.slot].sk = skipFunc(func(from, to Cycle) {
			skips = append(skips, [2]Cycle{from, to})
			p.Skip(from, to)
		})
		k.Run(cycles)
		if !slices.Equal(p.ticks, []Cycle{tc.ticked}) {
			t.Errorf("%s: ticked at %v, want [%d]", tc.name, p.ticks, tc.ticked)
		}
		if a.foldedAtArm != 0 {
			t.Errorf("%s: folded through %d at the Arm, want 0 (no fold)", tc.name, a.foldedAtArm)
		}
		want := [][2]Cycle{{1, tc.ticked - 1}, {tc.ticked + 1, cycles}}
		if !slices.Equal(skips, want) {
			t.Errorf("%s: skips %v, want %v", tc.name, skips, want)
		}
	}
}

type skipFunc func(from, to Cycle)

func (f skipFunc) Skip(from, to Cycle) { f(from, to) }

// steppedThroughProbe records SteppedThrough of a handle each time it
// ticks.
type steppedThroughProbe struct {
	h   *WakeHandle
	got []Cycle
}

func (p *steppedThroughProbe) Tick(Cycle) {
	c, _ := p.h.SteppedThrough()
	p.got = append(p.got, c)
}

func (p *steppedThroughProbe) NextWake(now Cycle) Cycle { return now + 1 }

// TestSteppedThrough pins the settle rule a handle reports: a component
// earlier in tick order than the running code owes its work through the
// current cycle, a later one through the previous cycle; event handlers
// run before every slot and code between cycles after every slot.
func TestSteppedThrough(t *testing.T) {
	k := NewKernel(1)
	var early, late WakeHandle
	early = NewWakeHandle(&k, k.Register(&parked{t: t}))
	probeEarly := &steppedThroughProbe{h: &early}
	probeLate := &steppedThroughProbe{h: &late}
	k.Register(probeEarly)
	k.Register(probeLate)
	late = NewWakeHandle(&k, k.Register(&parked{t: t}))
	var inEvent Cycle
	h := k.RegisterHandler(EventHandlerFunc(func(Cycle, EventKind, uint64) {
		inEvent, _ = early.SteppedThrough()
	}))
	k.ScheduleEvent(5, h, 0, 0)
	k.Run(5)
	if want := []Cycle{1, 2, 3, 4, 5}; !slices.Equal(probeEarly.got, want) {
		t.Errorf("earlier component: %v, want %v", probeEarly.got, want)
	}
	if want := []Cycle{0, 1, 2, 3, 4}; !slices.Equal(probeLate.got, want) {
		t.Errorf("later component: %v, want %v", probeLate.got, want)
	}
	if inEvent != 4 {
		t.Errorf("event handler at cycle 5: %d, want 4", inEvent)
	}
	if c, ok := late.SteppedThrough(); !ok || c != 5 {
		t.Errorf("between cycles after cycle 5: %d %v, want 5 true", c, ok)
	}
	k.SetFastPath(false)
	if _, ok := late.SteppedThrough(); ok {
		t.Error("a stepped kernel reported a component behind")
	}
}
