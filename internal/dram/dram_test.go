package dram

import (
	"testing"
	"testing/quick"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

func testChannel() *Channel {
	g := DefaultGeometry()
	return NewChannel(DDR3_1333(), g, NewAddrMap(g))
}

// testChannelNoRefresh disables refresh so latency arithmetic is exact.
func testChannelNoRefresh() *Channel {
	t := DDR3_1333()
	t.TREFI = 0
	g := DefaultGeometry()
	return NewChannel(t, g, NewAddrMap(g))
}

func read(addr uint64) *mem.Request {
	return &mem.Request{Addr: addr, Op: mem.Read}
}

func write(addr uint64) *mem.Request {
	return &mem.Request{Addr: addr, Op: mem.Write}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR3_1333().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DDR3_1333()
	bad.TRCD = 0
	if bad.Validate() == nil {
		t.Fatal("zero tRCD accepted")
	}
	bad = DDR3_1333()
	bad.TRFC = 0
	if bad.Validate() == nil {
		t.Fatal("refresh enabled with zero tRFC accepted")
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultGeometry()
	bad.RowBytes = 3000
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two row accepted")
	}
	bad = DefaultGeometry()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
	if DefaultGeometry().TotalBanks() != 8 {
		t.Fatal("default geometry should have 8 banks")
	}
}

func TestAddrMapDecodeFields(t *testing.T) {
	m := NewAddrMap(DefaultGeometry())
	// Layout: offset 6 bits, col 7 bits, bank 3 bits, row rest.
	loc := m.Decode(0, 0)
	if loc.Bank != 0 || loc.Row != 0 || loc.Col != 0 {
		t.Fatalf("decode(0) = %+v", loc)
	}
	// One line up: col 1.
	if m.Decode(64, 0).Col != 1 {
		t.Fatal("col bit misplaced")
	}
	// Past the row's 128 lines: next bank.
	if m.Decode(8192, 0).Bank != 1 {
		t.Fatalf("bank bit misplaced: %+v", m.Decode(8192, 0))
	}
	// Past all 8 banks: next row.
	if l := m.Decode(8*8192, 0); l.Row != 1 || l.Bank != 0 {
		t.Fatalf("row bit misplaced: %+v", l)
	}
}

func TestSameRow(t *testing.T) {
	m := NewAddrMap(DefaultGeometry())
	if !m.SameRow(0, 64, 0) {
		t.Fatal("adjacent lines should share a row")
	}
	if m.SameRow(0, 8192, 0) {
		t.Fatal("different banks reported same row")
	}
}

func TestBankPartitioning(t *testing.T) {
	m := NewAddrMap(DefaultGeometry())
	m.SetBankPartitions(EqualBankPartitions(4, 8))
	// Core 0 owns banks {0,1}; any address must land there.
	for addr := uint64(0); addr < 1<<22; addr += 4096 + 64 {
		b := m.Decode(addr, 0).Bank
		if b != 0 && b != 1 {
			t.Fatalf("core 0 address decoded to bank %d", b)
		}
		b = m.Decode(addr, 3).Bank
		if b != 6 && b != 7 {
			t.Fatalf("core 3 address decoded to bank %d", b)
		}
	}
}

func TestEqualBankPartitionsDisjoint(t *testing.T) {
	parts := EqualBankPartitions(4, 8)
	seen := map[int]int{}
	for core, banks := range parts {
		if len(banks) != 2 {
			t.Fatalf("core %d has %d banks, want 2", core, len(banks))
		}
		for _, b := range banks {
			if prev, dup := seen[b]; dup {
				t.Fatalf("bank %d owned by cores %d and %d", b, prev, core)
			}
			seen[b] = core
		}
	}
	// More cores than banks: round-robin sharing, one bank each.
	many := EqualBankPartitions(16, 8)
	for core, banks := range many {
		if len(banks) != 1 || banks[0] != core%8 {
			t.Fatalf("oversubscribed partition wrong: core %d -> %v", core, banks)
		}
	}
}

func TestRowEmptyAccessLatency(t *testing.T) {
	c := testChannelNoRefresh()
	tm := DDR3_1333()
	req := read(0)
	if !c.CanIssue(1, req) {
		t.Fatal("idle bank refused issue")
	}
	done := c.Issue(1, req)
	want := sim.Cycle(1) + tm.TRCD + tm.TCAS + tm.TBurst
	if done != want {
		t.Fatalf("closed-row read done at %d, want %d", done, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := testChannelNoRefresh()
	first := read(0)
	done := c.Issue(1, first)
	c.Complete(first)

	// Same row: hit.
	hit := read(64)
	if !c.IsRowHit(hit) {
		t.Fatal("same-row access not classified as hit")
	}
	hitDone := c.Issue(done+1, hit) - (done + 1)
	c.Complete(hit)

	// Same bank, different row: conflict.
	conflict := read(8 * 8192 * 4)
	if c.IsRowHit(conflict) {
		t.Fatal("cross-row access classified as hit")
	}
	now := done + 1 + hitDone + 1000
	conflictDone := c.Issue(now, conflict) - now
	c.Complete(conflict)

	if hitDone >= conflictDone {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hitDone, conflictDone)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowConfl != 1 || st.RowEmpty != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBankBusyUntilComplete(t *testing.T) {
	c := testChannelNoRefresh()
	req := read(0)
	c.Issue(1, req)
	other := read(64) // same bank
	if c.CanIssue(2, other) {
		t.Fatal("bank accepted a second in-flight transaction")
	}
	c.Complete(req)
	// After completion (and a tick to free the command bus) the bank
	// frees once its timing allows.
	c.Tick(100000)
	if !c.CanIssue(100000, other) {
		t.Fatal("bank never freed after completion")
	}
}

func TestBankLevelParallelism(t *testing.T) {
	c := testChannelNoRefresh()
	a := read(0)    // bank 0
	b := read(8192) // bank 1
	c.Issue(1, a)
	if c.CanIssue(1, b) {
		t.Fatal("command bus allowed two issues in one cycle")
	}
	c.Tick(2) // new cycle frees the command bus
	if !c.CanIssue(2, b) {
		t.Fatal("different bank blocked despite bank-level parallelism")
	}
}

func TestDataBusSerialization(t *testing.T) {
	c := testChannelNoRefresh()
	tm := DDR3_1333()
	a, b := read(0), read(8192)
	doneA := c.Issue(1, a)
	c.Tick(2)
	doneB := c.Issue(2, b)
	if doneB < doneA+tm.TBurst {
		t.Fatalf("bursts overlap on the data bus: %d then %d", doneA, doneB)
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	c := testChannelNoRefresh()
	w := write(0)
	doneW := c.Issue(1, w)
	c.Tick(2)
	r := read(8192)
	doneR := c.Issue(2, r)
	tm := DDR3_1333()
	if doneR < doneW+tm.TWTR {
		t.Fatalf("write-to-read turnaround violated: w done %d, r done %d", doneW, doneR)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	c := testChannel()
	req := read(0)
	c.Issue(1, req)
	c.Complete(req)
	if _, open := c.OpenRow(0, 0); !open {
		t.Fatal("row not open after access")
	}
	// Tick past the refresh interval.
	tm := DDR3_1333()
	for now := sim.Cycle(2); now < tm.TREFI+tm.TRFC+1000; now++ {
		c.Tick(now)
	}
	if _, open := c.OpenRow(0, 0); open {
		t.Fatal("row still open after refresh")
	}
	if c.Stats().Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
}

func TestTFAWThrottlesActivates(t *testing.T) {
	c := testChannelNoRefresh()
	tm := DDR3_1333()
	// Five activates to five different banks back to back; the fifth must
	// start at least tFAW after the first.
	var firstAct, fifthDone sim.Cycle
	now := sim.Cycle(1)
	for i := 0; i < 5; i++ {
		req := read(uint64(i) * 8192)
		for !c.CanIssue(now, req) {
			now++
			c.Tick(now)
		}
		done := c.Issue(now, req)
		if i == 0 {
			firstAct = now
		}
		if i == 4 {
			fifthDone = done
		}
		now++
		c.Tick(now)
	}
	minDone := firstAct + tm.TFAW + tm.TCAS + tm.TBurst
	if fifthDone < minDone {
		t.Fatalf("fifth activate too early: done %d, want >= %d", fifthDone, minDone)
	}
}

func TestIssueToBusyBankPanics(t *testing.T) {
	c := testChannelNoRefresh()
	c.Issue(1, read(0))
	defer func() {
		if recover() == nil {
			t.Fatal("issue to busy bank did not panic")
		}
	}()
	c.Issue(2, read(64))
}

func TestHitRateStat(t *testing.T) {
	var s ChannelStats
	if s.HitRate() != 0 {
		t.Fatal("empty stats hit rate not 0")
	}
	s.RowHits, s.RowEmpty = 3, 1
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestDecodeWithinGeometryProperty(t *testing.T) {
	m := NewAddrMap(DefaultGeometry())
	g := DefaultGeometry()
	check := func(addr uint64, core uint8) bool {
		loc := m.Decode(addr, int(core%4))
		return loc.Channel < g.Channels &&
			loc.Rank < g.RanksPerChannel &&
			loc.Bank < g.BanksPerRank &&
			loc.Col < g.RowBytes/g.LineBytes
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionMonotoneProperty(t *testing.T) {
	// Issuing at a later time never completes earlier, for a fresh
	// channel and any address.
	check := func(addr uint64, delay uint16) bool {
		c1 := testChannelNoRefresh()
		c2 := testChannelNoRefresh()
		d1 := c1.Issue(1, read(addr))
		d2 := c2.Issue(1+sim.Cycle(delay), read(addr))
		return d2 >= d1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDDR3_1600Valid(t *testing.T) {
	if err := DDR3_1600().Validate(); err != nil {
		t.Fatal(err)
	}
	// The faster part must have a shorter burst occupancy.
	if DDR3_1600().TBurst >= DDR3_1333().TBurst {
		t.Fatal("DDR3-1600 burst not faster than DDR3-1333")
	}
}

func TestClosedPagePolicy(t *testing.T) {
	c := testChannelNoRefresh()
	c.SetClosedPage(true)
	first := read(0)
	c.Issue(1, first)
	c.Complete(first)
	if _, open := c.OpenRow(0, 0); open {
		t.Fatal("closed-page policy left a row open")
	}
	// A would-be row hit is now just another closed-row access.
	c.Tick(2)
	if c.IsRowHit(read(64)) {
		t.Fatal("closed-page policy reported a row hit")
	}
}

func TestClosedPageUniformLatency(t *testing.T) {
	c := testChannelNoRefresh()
	c.SetClosedPage(true)
	// Same-row accesses back to back: with closed page, the second pays
	// the same activate+CAS as the first (no fast path).
	tm := DDR3_1333()
	a := read(0)
	doneA := c.Issue(1, a)
	c.Complete(a)
	now := doneA + tm.TRP + 10
	c.Tick(now)
	b := read(64)
	lat := c.Issue(now, b) - now
	want := tm.TRCD + tm.TCAS + tm.TBurst
	if lat != want {
		t.Fatalf("closed-page same-row latency %d, want uniform %d", lat, want)
	}
}

// TestBlockedRefreshHint checks the wake hint of a refresh that is due
// but held off by a bank in flight: the blocked rank adds no wake of its
// own (Complete wakes the channel), and once the bank completes the
// channel asks for the next cycle, where the refresh starts.
func TestBlockedRefreshHint(t *testing.T) {
	c := testChannel()
	tm := c.Timing()
	req := read(0)
	c.Issue(tm.TREFI-10, req)
	due := tm.TREFI
	for now := tm.TREFI - 9; now <= due+5; now++ {
		c.Tick(now)
	}
	now := due + 5
	if c.Stats().Refreshes != 0 {
		t.Fatal("refresh started under a bank in flight")
	}
	if g := c.Geometry(); g.RanksPerChannel != 1 {
		t.Fatalf("test assumes one rank, geometry has %d", g.RanksPerChannel)
	}
	if w := c.NextWake(now); w != sim.NeverWake {
		t.Fatalf("blocked refresh: NextWake(%d) = %d, want NeverWake", now, w)
	}
	c.Complete(req)
	if w := c.NextWake(now); w != now+1 {
		t.Fatalf("after Complete: NextWake(%d) = %d, want %d", now, w, now+1)
	}
	c.Tick(now + 1)
	if c.Stats().Refreshes != 1 {
		t.Fatalf("refresh did not start the cycle after Complete: %d refreshes", c.Stats().Refreshes)
	}
}
