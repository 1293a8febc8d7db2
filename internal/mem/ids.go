package mem

import (
	"camouflage/internal/ckpt"
	"camouflage/internal/sim"
)

// IDSource hands out request IDs: unique per run and increasing in
// creation order. One source serves every cache and shaper of a system,
// so bus traces have a total order. The zero value is ready to use.
//
// A refused fake still burns the ID it would have carried, so the IDs
// later requests get depend on how many refusals came before them. A
// shaper parked on a full output (see shaper.Shaper.NextWake) replays
// its refused cycles in bulk, long after they happened, so before each
// draw the source has every tracked burner burn the IDs it owes through
// the last cycle a cycle-stepped run would already have ticked it
// (sim.WakeHandle.SteppedThrough). Only the count of burned IDs matters:
// a burned ID is never used.
type IDSource struct {
	last    uint64
	burners []burner
}

// Burner is a component that owes ID burns for cycles it was not
// ticked.
type Burner interface {
	// SettleBurns returns how many IDs the component's skipped Ticks
	// through cycle through would have burned that it has not burned
	// yet, and counts them as burned.
	SettleBurns(through sim.Cycle) uint64
}

type burner struct {
	b Burner
	w sim.WakeHandle
}

// Track makes the source settle b, whose kernel slot w names, before
// every draw.
func (s *IDSource) Track(b Burner, w sim.WakeHandle) {
	s.burners = append(s.burners, burner{b, w})
}

// Next settles every tracked burner and returns a fresh ID.
func (s *IDSource) Next() uint64 {
	for _, b := range s.burners {
		if through, ok := b.w.SteppedThrough(); ok {
			s.last += b.b.SettleBurns(through)
		}
	}
	s.last++
	return s.last
}

// Burn consumes n IDs without handing them out: the draws of refused
// fakes. A burn needs no settling, since only the count matters.
func (s *IDSource) Burn(n uint64) { s.last += n }

// Snapshot serializes the ID counter. Call it after a kernel Sync.
func (s *IDSource) Snapshot(e *ckpt.Encoder) { e.U64(s.last) }

// Restore implements ckpt.Stater.
func (s *IDSource) Restore(d *ckpt.Decoder) error {
	s.last = d.U64()
	return d.Err()
}
