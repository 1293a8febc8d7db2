package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/dram"
	"camouflage/internal/sim"
)

func TestRingKeepsLastKOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	if r.Recorded() != 10 {
		t.Fatalf("recorded %d, want 10", r.Recorded())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Msg != want || ev.Cycle != sim.Cycle(6+i) {
			t.Fatalf("event %d = %+v, want %s", i, ev, want)
		}
	}
}

func TestRingExactlyFull(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Msg != "ev0" || evs[2].Msg != "ev2" {
		t.Fatalf("events %+v", evs)
	}
	// One more wraps: ev0 evicted, order still oldest-first.
	r.Record(3, "ev3")
	evs = r.Events()
	if len(evs) != 3 || evs[0].Msg != "ev1" || evs[2].Msg != "ev3" {
		t.Fatalf("post-wrap events %+v", evs)
	}
}

func TestRingUnderfilled(t *testing.T) {
	r := NewRing(8)
	r.Record(1, "only")
	evs := r.Events()
	if len(evs) != 1 || evs[0].Msg != "only" {
		t.Fatalf("events %+v", evs)
	}
}

// Two recorders interleaving into a shared ring — the pattern checkers
// and instrumented components produce in a real run. The ring must keep
// a consistent, oldest-first global order across many wrap points
// regardless of how the writers alternate.
func TestRingInterleavedWritersAcrossWraps(t *testing.T) {
	const size = 5
	schedules := [][]int{
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},       // strict alternation
		{0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1}, // bursts
		{1, 1, 1, 1, 1, 1, 0},                         // one dominates
	}
	for si, sched := range schedules {
		r := NewRing(size)
		var global []string
		for step, writer := range sched {
			msg := fmt.Sprintf("w%d#%d", writer, step)
			r.Record(sim.Cycle(step), "%s", msg)
			global = append(global, msg)
		}
		want := global
		if len(want) > size {
			want = want[len(want)-size:]
		}
		evs := r.Events()
		if len(evs) != len(want) {
			t.Fatalf("schedule %d: retained %d, want %d", si, len(evs), len(want))
		}
		for i := range want {
			if evs[i].Msg != want[i] {
				t.Fatalf("schedule %d: event %d = %q, want %q", si, i, evs[i].Msg, want[i])
			}
		}
		if r.Recorded() != uint64(len(global)) {
			t.Fatalf("schedule %d: recorded %d, want %d", si, r.Recorded(), len(global))
		}
	}
}

func TestRingDumpMentionsEvictions(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	d := r.Dump()
	if !strings.Contains(d, "last 2 of 5") {
		t.Fatalf("dump header missing eviction count:\n%s", d)
	}
	if !strings.Contains(d, "ev3") || !strings.Contains(d, "ev4") || strings.Contains(d, "ev2") {
		t.Fatalf("dump content wrong:\n%s", d)
	}
}

func TestRingDefaultSize(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < DefaultRingSize+10; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	if got := len(r.Events()); got != DefaultRingSize {
		t.Fatalf("retained %d, want %d", got, DefaultRingSize)
	}
}

// TestRingIssueReadsBackAsFormatted pins lazy issue formatting: a DRAM
// issue recorded typed must read back, dump and checkpoint exactly as
// the eagerly formatted message the ring stored before, including after
// it wraps over formatted events and is restored from a checkpoint.
func TestRingIssueReadsBackAsFormatted(t *testing.T) {
	issues := []dram.IssueEvent{
		{Now: 120, Rank: 0, Bank: 3, Row: 4097, Write: true, Activated: true, ActAt: 121, ColAt: 131, DataAt: 142},
		{Now: 7, Rank: 1, Bank: 7, Row: 0, BusyBank: true, ColAt: 9, DataAt: 20},
	}
	const format = "dram issue rank=%d bank=%d row=%d write=%v act=%v actAt=%d colAt=%d dataAt=%d busy=%v"
	lazy, eager := NewRing(3), NewRing(3)
	for i := 0; i < 4; i++ {
		ev := issues[i%len(issues)]
		lazy.RecordIssue(ev)
		eager.Record(ev.Now, format, ev.Rank, ev.Bank, ev.Row, ev.Write, ev.Activated, ev.ActAt, ev.ColAt, ev.DataAt, ev.BusyBank)
		lazy.Record(sim.Cycle(i), "other %d", i)
		eager.Record(sim.Cycle(i), "other %d", i)
	}
	want := "dram issue rank=1 bank=7 row=0 write=false act=false actAt=0 colAt=9 dataAt=20 busy=true"
	if got := lazy.Events()[1].Msg; got != want {
		t.Fatalf("typed issue reads back as %q, want %q", got, want)
	}
	if lazy.Dump() != eager.Dump() {
		t.Fatalf("dumps differ:\n%s\nvs\n%s", lazy.Dump(), eager.Dump())
	}
	snap := func(r *Ring) []byte {
		var e ckpt.Encoder
		r.Snapshot(&e)
		return e.Bytes()
	}
	if !bytes.Equal(snap(lazy), snap(eager)) {
		t.Fatal("checkpoint bytes of the lazily formatted ring differ from the eager one")
	}
	restored := NewRing(3)
	if err := restored.Restore(ckpt.NewDecoder(snap(lazy))); err != nil {
		t.Fatal(err)
	}
	if restored.Dump() != eager.Dump() {
		t.Fatal("restored ring dumps differently")
	}
}
