package noc

import (
	"bytes"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// snapshot returns l's checkpoint bytes.
func snapshot(l *Link) []byte {
	var e ckpt.Encoder
	l.Snapshot(&e)
	return e.Bytes()
}

// TestSkipCountsCapacityStalls fills a link's pipe to capacity behind a
// head the fault hook delayed, leaves the inputs empty, and checks that
// skipping to the head's maturity leaves the link exactly as ticking
// through the span does: every one of those ticks finds the pipe full
// and counts a stall cycle.
func TestSkipCountsCapacityStalls(t *testing.T) {
	const latency, width, delay = 4, 1, 100
	build := func() *Link {
		l, _ := newTestLink(2, latency, width)
		first := true
		l.SetFaultHook(func(sim.Cycle, *mem.Request) (FaultAction, sim.Cycle) {
			if first {
				first = false
				return FaultDelay, delay
			}
			return FaultNone, 0
		})
		return l
	}
	ticked := build()
	capacity := (latency + 1) * width
	now := sim.Cycle(0)
	for id := 1; id <= capacity; id++ {
		now++
		if !ticked.Input(id%2).TrySend(now, &mem.Request{ID: uint64(id), Core: id % 2}) {
			t.Fatalf("input refused request %d", id)
		}
		ticked.Tick(now)
	}
	if got := ticked.Outstanding(); got != capacity {
		t.Fatalf("pipe holds %d transfers, want %d (capacity)", got, capacity)
	}
	wake := ticked.NextWake(now)
	if wake <= now+1 {
		t.Fatalf("NextWake(%d) = %d: the full pipe's delayed head should park the link", now, wake)
	}

	skipped := build()
	if err := skipped.Restore(ckpt.NewDecoder(snapshot(ticked))); err != nil {
		t.Fatal(err)
	}
	stallsBefore := ticked.Stats().StallCycles
	for c := now + 1; c < wake; c++ {
		ticked.Tick(c)
	}
	skipped.Skip(now+1, wake-1)

	if got, want := ticked.Stats().StallCycles-stallsBefore, uint64(wake-1-now); got != want {
		t.Fatalf("ticking through the span counted %d stall cycles, want %d", got, want)
	}
	if got, want := skipped.Stats().StallCycles, ticked.Stats().StallCycles; got != want {
		t.Errorf("Skip left StallCycles at %d, ticking at %d", got, want)
	}
	if !bytes.Equal(snapshot(skipped), snapshot(ticked)) {
		t.Error("Skip over the span left a different link state than ticking through it")
	}
}

// fullReceiver is a BulkRefuser that refuses everything and counts the
// refusals, one by one or in bulk.
type fullReceiver struct{ rejected uint64 }

func (r *fullReceiver) TrySend(sim.Cycle, *mem.Request) bool {
	r.rejected++
	return false
}
func (r *fullReceiver) Full() bool       { return true }
func (r *fullReceiver) Refused(n uint64) { r.rejected += n }

// TestParkedSkipMatchesRefusedTicks fills a link's pipe to capacity in
// front of a full BulkRefuser, with every input still holding traffic,
// and checks that the parked link's Skip over a span leaves the link and
// the receiver exactly as ticking through it does: two stall cycles per
// cycle (the refused delivery and the full pipe), the refusals counted
// at the receiver, and the round-robin pointer rotated by the span.
func TestParkedSkipMatchesRefusedTicks(t *testing.T) {
	const latency, width, cores = 2, 1, 3
	build := func() (*Link, *fullReceiver) {
		l := NewLink("test", cores, 4, latency, width)
		r := &fullReceiver{}
		l.SetRoute(func(*mem.Request) mem.ReqPort { return r })
		return l, r
	}
	ticked, tickedRecv := build()
	id := uint64(0)
	for core := 0; core < cores; core++ {
		for i := 0; i < 4; i++ {
			id++
			ticked.Input(core).Push(&mem.Request{ID: id, Core: core})
		}
	}
	now := sim.Cycle(0)
	for ticked.NextWake(now) != sim.NeverWake {
		now++
		ticked.Tick(now)
		if now > 100 {
			t.Fatal("link never parked on the full receiver")
		}
	}

	skipped, skippedRecv := build()
	if err := skipped.Restore(ckpt.NewDecoder(snapshot(ticked))); err != nil {
		t.Fatal(err)
	}
	skippedRecv.rejected = tickedRecv.rejected
	const span = 37
	for c := now + 1; c <= now+span; c++ {
		ticked.Tick(c)
	}
	skipped.Skip(now+1, now+span)

	if got := ticked.Stats().StallCycles - skipped.Stats().StallCycles; got != 0 {
		t.Errorf("StallCycles differ by %d", got)
	}
	if tickedRecv.rejected != skippedRecv.rejected {
		t.Errorf("receiver counted %d refusals after Skip, %d after ticking", skippedRecv.rejected, tickedRecv.rejected)
	}
	if skipped.rr != ticked.rr {
		t.Errorf("rr %d after Skip, %d after ticking", skipped.rr, ticked.rr)
	}
	if !bytes.Equal(snapshot(skipped), snapshot(ticked)) {
		t.Error("Skip over the parked span left a different link state than ticking through it")
	}
}
