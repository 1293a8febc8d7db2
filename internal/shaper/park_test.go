package shaper

import (
	"bytes"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// parkPair builds a request shaper in credit mode with fakes on, drives
// it through one window into an output queue that then fills, and
// returns it with its output, its ID source and the cycle reached.
// withHead leaves a real transaction queued for release.
func parkPair(t *testing.T, withHead bool) (*Shaper, *mem.Queue, *mem.IDSource, sim.Cycle) {
	t.Helper()
	b := stats.DefaultBinning()
	credits := make([]int, b.N())
	for i := range credits {
		credits[i] = b.N() - i
	}
	cfg := cfgWith(credits, 2048, true)
	out := mem.NewQueue(4)
	ids := &mem.IDSource{}
	s, err := NewRequestShaper(0, cfg, 8, out, sim.NewRNG(5), ids)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWake(sim.WakeHandle{})
	now := sim.Cycle(0)
	for ; now < 2048+300; now++ {
		if now%97 == 0 {
			s.TrySend(now, &mem.Request{ID: ids.Next(), CreatedAt: now})
		}
		s.Tick(now)
		for out.Len() > 0 && now < 2048+200 {
			out.Pop()
		}
	}
	if withHead {
		s.TrySend(now, &mem.Request{ID: ids.Next(), CreatedAt: now})
	}
	if !out.Full() {
		t.Fatal("output queue did not fill")
	}
	return s, out, ids, now - 1
}

// lastID reads the ID source's counter through its checkpoint image.
func lastID(ids *mem.IDSource) uint64 {
	var e ckpt.Encoder
	ids.Snapshot(&e)
	return ckpt.NewDecoder(e.Bytes()).U64()
}

// TestParkedSkipMatchesRefusedTicks checks a parked shaper's Skip
// against stepping the same refused ticks: the ID source's count, the
// RNG stream, the head's release stamp and the whole checkpoint image
// must agree.
func TestParkedSkipMatchesRefusedTicks(t *testing.T) {
	for _, withHead := range []bool{false, true} {
		ticked, _, tickedIDs, now := parkPair(t, withHead)
		skipped, _, skippedIDs, _ := parkPair(t, withHead)

		hint := skipped.NextWake(now)
		if !skipped.parked || hint <= now+1 {
			t.Fatalf("head %v: full output did not park the shaper (hint %d at %d)", withHead, hint, now)
		}
		to := hint - 1
		before := lastID(tickedIDs)
		for c := now + 1; c <= to; c++ {
			ticked.Tick(c)
		}
		skipped.Skip(now+1, to)

		if lastID(tickedIDs) != lastID(skippedIDs) {
			t.Errorf("head %v: last ID %d after Skip, %d after ticking", withHead, lastID(skippedIDs), lastID(tickedIDs))
		}
		if withHead {
			th, sh := ticked.queue.Peek(), skipped.queue.Peek()
			if th.ShapedAt <= now || th.ShapedAt != sh.ShapedAt {
				t.Errorf("head stamped at %d after Skip, %d after ticking", sh.ShapedAt, th.ShapedAt)
			}
		} else if lastID(tickedIDs) == before {
			t.Error("no fake came due in the span: nothing burned")
		}
		var te, se ckpt.Encoder
		ticked.Snapshot(&te)
		skipped.Snapshot(&se)
		if !bytes.Equal(te.Bytes(), se.Bytes()) {
			t.Errorf("head %v: Skip left a different shaper state (RNG, credits, stats) than ticking", withHead)
		}
	}
}

// TestSettleBurnsThenSkip checks that burns settled early, through a
// cycle inside the parked span, are not burned again by the Skip that
// covers it.
func TestSettleBurnsThenSkip(t *testing.T) {
	ticked, _, tickedIDs, now := parkPair(t, false)
	skipped, _, skippedIDs, _ := parkPair(t, false)
	hint := skipped.NextWake(now)
	to := hint - 1
	mid := now + (to-now)/2
	for c := now + 1; c <= to; c++ {
		ticked.Tick(c)
	}
	skippedIDs.Burn(skipped.SettleBurns(mid))
	if skipped.SettleBurns(mid) != 0 {
		t.Error("settling the same cycle twice burned again")
	}
	skipped.Skip(now+1, to)
	if lastID(tickedIDs) != lastID(skippedIDs) {
		t.Errorf("IDs %d after settle and Skip, %d after ticking", lastID(skippedIDs), lastID(tickedIDs))
	}
	if lastID(tickedIDs) == 0 {
		t.Error("no ID drawn or burned")
	}
}
