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
