package mem

import (
	"slices"
	"testing"

	"camouflage/internal/sim"
)

// cycleBurner owes one ID burn per cycle and records each cycle it is
// settled through. It never ticks on its own.
type cycleBurner struct {
	settled sim.Cycle
	asked   []sim.Cycle
}

func (b *cycleBurner) Tick(sim.Cycle)               {}
func (b *cycleBurner) NextWake(sim.Cycle) sim.Cycle { return sim.NeverWake }
func (b *cycleBurner) SettleBurns(through sim.Cycle) uint64 {
	b.asked = append(b.asked, through)
	n := uint64(through - b.settled)
	b.settled = through
	return n
}

// drawer draws an ID at cycle at.
type drawer struct {
	ids *IDSource
	at  sim.Cycle
	got uint64
}

func (d *drawer) Tick(now sim.Cycle) {
	if now == d.at {
		d.got = d.ids.Next()
	}
}

func (d *drawer) NextWake(now sim.Cycle) sim.Cycle {
	if now < d.at {
		return d.at
	}
	return sim.NeverWake
}

// TestIDSourceSettleOrder pins the order in which a draw settles the
// burns of parked components: a burner earlier in tick order than the
// drawing component owes burns through the draw's cycle, a later one
// through the cycle before; an event handler counts as running before
// every slot, code between cycles as running after every slot.
func TestIDSourceSettleOrder(t *testing.T) {
	var ids IDSource
	k := sim.NewKernel(1)
	before, after := &cycleBurner{}, &cycleBurner{}
	ids.Track(before, sim.NewWakeHandle(&k, k.Register(before)))
	d := &drawer{ids: &ids, at: 10}
	k.Register(d)
	ids.Track(after, sim.NewWakeHandle(&k, k.Register(after)))
	var inEvent uint64
	h := k.RegisterHandler(sim.EventHandlerFunc(func(sim.Cycle, sim.EventKind, uint64) {
		inEvent = ids.Next()
	}))
	k.ScheduleEvent(20, h, 0, 0)

	k.Run(30)
	between := ids.Next()

	if want := []sim.Cycle{10, 19, 30}; !slices.Equal(before.asked, want) {
		t.Errorf("earlier burner settled through %v, want %v", before.asked, want)
	}
	if want := []sim.Cycle{9, 19, 30}; !slices.Equal(after.asked, want) {
		t.Errorf("later burner settled through %v, want %v", after.asked, want)
	}
	// One burn per owed cycle per burner, plus the draws themselves.
	if d.got != 10+9+1 {
		t.Errorf("drawn at cycle 10 in the middle slot: ID %d, want %d", d.got, 10+9+1)
	}
	if inEvent != 19+19+2 {
		t.Errorf("drawn by the event at cycle 20: ID %d, want %d", inEvent, 19+19+2)
	}
	if between != 30+30+3 {
		t.Errorf("drawn between cycles after cycle 30: ID %d, want %d", between, 30+30+3)
	}
}
