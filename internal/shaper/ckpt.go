package shaper

import (
	"camouflage/internal/ckpt"
	"camouflage/internal/sim"
)

// Snapshot serializes the complete credit machinery: live and banked
// bins, the replenishment/slot/epoch clocks, the jitter draw, the
// oblivious reservation, the audit ledger and the counters. The RNG is
// serialized here because the shaper owns its stream (the same *sim.RNG
// is shared with the enclosing shaper's fake-address draws, so it is
// written exactly once, by the bin core).
func (b *binCore) Snapshot(e *ckpt.Encoder) {
	e.Len(len(b.credits))
	for _, c := range b.credits {
		e.Int(c)
	}
	e.Len(len(b.unused))
	for _, u := range b.unused {
		e.Int(u)
	}
	e.U64(uint64(b.lastRelease))
	e.Bool(b.released)
	e.U64(uint64(b.nextReplenish))
	e.U64(uint64(b.nextSlot))
	e.U64(uint64(b.curInterval))
	e.U64(uint64(b.nextEpoch))
	e.U64(b.epochArrivals)
	b.rng.Snapshot(e)
	e.F64(b.jitterFrac)
	e.U64(uint64(b.nextRelease))
	e.Int(b.reservedBin)
	e.U64(b.led.granted)
	e.U64(b.led.consumed)
	e.U64(b.led.banked)
	e.U64(b.led.discarded)
	e.U64(b.led.fakeSpent)
	e.U64(b.stats.ReleasedReal)
	e.U64(b.stats.ReleasedFake)
	e.U64(b.stats.DelayedCycles)
	e.U64(b.stats.Replenishments)
	e.U64(b.stats.UnusedSaved)
	e.U64(b.stats.WarningsSent)
	e.U64(b.stats.Epochs)
	e.U64(b.stats.RateChanges)
}

// Restore implements ckpt.Stater.
func (b *binCore) Restore(d *ckpt.Decoder) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(b.credits) {
		return ckpt.Mismatch("shaper: %d credit bins, checkpoint has %d", len(b.credits), n)
	}
	for i := range b.credits {
		b.credits[i] = d.Int()
	}
	n = d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(b.unused) {
		return ckpt.Mismatch("shaper: %d unused bins, checkpoint has %d", len(b.unused), n)
	}
	for i := range b.unused {
		b.unused[i] = d.Int()
	}
	b.lastRelease = sim.Cycle(d.U64())
	b.released = d.Bool()
	b.nextReplenish = sim.Cycle(d.U64())
	b.nextSlot = sim.Cycle(d.U64())
	b.curInterval = sim.Cycle(d.U64())
	b.nextEpoch = sim.Cycle(d.U64())
	b.epochArrivals = d.U64()
	if err := b.rng.Restore(d); err != nil {
		return err
	}
	b.jitterFrac = d.F64()
	b.nextRelease = sim.Cycle(d.U64())
	b.reservedBin = d.Int()
	b.led.granted = d.U64()
	b.led.consumed = d.U64()
	b.led.banked = d.U64()
	b.led.discarded = d.U64()
	b.led.fakeSpent = d.U64()
	b.stats.ReleasedReal = d.U64()
	b.stats.ReleasedFake = d.U64()
	b.stats.DelayedCycles = d.U64()
	b.stats.Replenishments = d.U64()
	b.stats.UnusedSaved = d.U64()
	b.stats.WarningsSent = d.U64()
	b.stats.Epochs = d.U64()
	b.stats.RateChanges = d.U64()
	// The wake memo is derived state: whatever was cached describes the
	// pre-restore timeline.
	b.wakeGen++
	return d.Err()
}

// Snapshot serializes the shaper: credit core (which carries the shared
// RNG), the queue with its waiting transactions, and both inter-arrival
// recorders. The fake-ID counter is owned by the System.
func (s *Shaper) Snapshot(e *ckpt.Encoder) {
	s.bins.Snapshot(e)
	s.queue.Snapshot(e)
	s.Intrinsic.Snapshot(e)
	s.Shaped.Snapshot(e)
}

// Restore implements ckpt.Stater.
func (s *Shaper) Restore(d *ckpt.Decoder) error {
	if err := s.bins.Restore(d); err != nil {
		return err
	}
	if err := s.queue.Restore(d); err != nil {
		return err
	}
	if err := s.Intrinsic.Restore(d); err != nil {
		return err
	}
	return s.Shaped.Restore(d)
}
