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
