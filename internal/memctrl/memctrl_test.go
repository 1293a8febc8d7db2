package memctrl

import (
	"testing"

	"camouflage/internal/dram"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

func testSetup(sched Scheduler, partition bool) (*Controller, *dram.Channel) {
	g := dram.DefaultGeometry()
	tm := dram.DDR3_1333()
	tm.TREFI = 0
	amap := dram.NewAddrMap(g)
	if partition {
		amap.SetBankPartitions(dram.EqualBankPartitions(4, 8))
	}
	ch := dram.NewChannel(tm, g, amap)
	return NewController(ch, sched, 0, 4), ch
}

// sink is an egress port collecting completions.
type sink struct {
	got  []*mem.Request
	full bool
}

func (s *sink) TrySend(_ sim.Cycle, req *mem.Request) bool {
	if s.full {
		return false
	}
	s.got = append(s.got, req)
	return true
}

func req(id uint64, core int, addr uint64) *mem.Request {
	return &mem.Request{ID: id, Core: core, Addr: addr, Op: mem.Read}
}

func runTicks(c *Controller, ch *dram.Channel, from, to sim.Cycle) {
	for now := from; now <= to; now++ {
		ch.Tick(now)
		c.Tick(now)
	}
}

func TestControllerServicesRequest(t *testing.T) {
	c, ch := testSetup(FRFCFS{}, false)
	s := &sink{}
	c.SetEgress(0, s)
	if !c.TrySend(1, req(1, 0, 0)) {
		t.Fatal("empty controller refused request")
	}
	runTicks(c, ch, 1, 500)
	if len(s.got) != 1 || s.got[0].ID != 1 {
		t.Fatalf("completions %v", s.got)
	}
	if s.got[0].ReadyAt == 0 || s.got[0].IssuedDRAM == 0 {
		t.Fatal("timestamps not stamped")
	}
	st := c.Stats()
	if st.Accepted != 1 || st.Issued != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueDepthBounds(t *testing.T) {
	c, _ := testSetup(FRFCFS{}, false)
	for i := 0; i < DefaultQueueDepth; i++ {
		if !c.TrySend(1, req(uint64(i), 0, uint64(i)*64)) {
			t.Fatalf("queue refused request %d under depth", i)
		}
	}
	if c.TrySend(1, req(99, 0, 99*64)) {
		t.Fatal("queue accepted request over depth")
	}
	if c.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c, ch := testSetup(FRFCFS{}, false)
	s0, s1 := &sink{}, &sink{}
	c.SetEgress(0, s0)
	c.SetEgress(1, s1)
	// Open a row in bank 0 via core 0.
	c.TrySend(1, req(1, 0, 0))
	runTicks(c, ch, 1, 300)
	// Now queue a conflict (same bank, different row) ahead of a hit.
	c.TrySend(301, req(2, 1, 8*8192)) // bank 0, other row
	c.TrySend(301, req(3, 0, 128))    // bank 0, open row: hit
	runTicks(c, ch, 301, 1200)
	if len(s0.got) != 2 || len(s1.got) != 1 {
		t.Fatalf("completions: core0 %d, core1 %d", len(s0.got), len(s1.got))
	}
	// The hit (ID 3) must have been issued before the older conflict.
	if s0.got[1].IssuedDRAM > s1.got[0].IssuedDRAM {
		t.Fatal("FR-FCFS did not prefer the row hit")
	}
}

func TestPriorityElevationWins(t *testing.T) {
	c, ch := testSetup(FRFCFS{}, false)
	s0, s1 := &sink{}, &sink{}
	c.SetEgress(0, s0)
	c.SetEgress(1, s1)
	// Same bank so the scheduler must choose an order.
	c.TrySend(1, req(1, 0, 0))
	c.TrySend(1, req(2, 1, 64))
	c.Elevate(1, 100, 10_000)
	runTicks(c, ch, 1, 800)
	if len(s0.got) != 1 || len(s1.got) != 1 {
		t.Fatal("not all requests completed")
	}
	if s1.got[0].IssuedDRAM > s0.got[0].IssuedDRAM {
		t.Fatal("elevated core did not issue first")
	}
}

func TestPriorityExpires(t *testing.T) {
	c, _ := testSetup(FRFCFS{}, false)
	c.Elevate(1, 100, 5)
	if c.Priority(1) != 100 {
		t.Fatal("elevation not applied")
	}
	c.Tick(5)
	if c.Priority(1) != 0 {
		t.Fatal("elevation did not expire")
	}
	// Out-of-range cores are ignored without panicking.
	c.Elevate(-1, 5, 10)
	c.Elevate(99, 5, 10)
	if c.Priority(-1) != 0 || c.Priority(99) != 0 {
		t.Fatal("out-of-range priority nonzero")
	}
}

func TestTPOnlyActiveDomainIssues(t *testing.T) {
	tp := NewTemporalPartitioning(512, 4)
	c, ch := testSetup(tp, false)
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		c.SetEgress(i, sinks[i])
	}
	// All four cores queue a request at cycle 1 (during domain 0's turn).
	for core := 0; core < 4; core++ {
		c.TrySend(1, req(uint64(core+1), core, uint64(core)*64+16*8192))
	}
	runTicks(c, ch, 1, 4*512+500)
	for core, s := range sinks {
		if len(s.got) != 1 {
			t.Fatalf("core %d got %d completions", core, len(s.got))
		}
		issued := s.got[0].IssuedDRAM
		domain := tp.ActiveDomain(issued)
		if domain != core {
			t.Fatalf("core %d issued during domain %d's turn (cycle %d)", core, domain, issued)
		}
	}
}

func TestTPDeadTimeBlocksIssue(t *testing.T) {
	tp := NewTemporalPartitioning(512, 4)
	c, ch := testSetup(tp, false)
	s := &sink{}
	c.SetEgress(0, s)
	// Queue just inside the dead time of domain 0's first turn (the
	// boundary cycle turnEnd-DeadTime itself may still issue, since that
	// transaction completes exactly at the turn boundary).
	deadStart := sim.Cycle(512) - tp.DeadTime + 1
	c.TrySend(deadStart, req(1, 0, 0))
	runTicks(c, ch, deadStart, 5000)
	if len(s.got) != 1 {
		t.Fatal("request never serviced")
	}
	// It must have waited for domain 0's next turn.
	if s.got[0].IssuedDRAM < 4*512 {
		t.Fatalf("issued at %d, inside dead time or wrong turn", s.got[0].IssuedDRAM)
	}
}

// TestTPTurnAtDeadTimeIssuesAtTurnStart pins the shortest turn
// core.Config.Validate accepts: a turn exactly TPDeadTime long issues
// only at its first cycle.
func TestTPTurnAtDeadTimeIssuesAtTurnStart(t *testing.T) {
	turn := TPDeadTime()
	tp := NewTemporalPartitioning(turn, 4)
	c, ch := testSetup(tp, false)
	s := &sink{}
	c.SetEgress(0, s)
	// Cycle 1 is already past domain 0's only issue cycle this turn.
	c.TrySend(1, req(1, 0, 0))
	runTicks(c, ch, 1, 4*turn+1000)
	if len(s.got) != 1 {
		t.Fatal("request never serviced")
	}
	if got := s.got[0].IssuedDRAM; got != 4*turn {
		t.Fatalf("issued at %d, want %d (first cycle of domain 0's next turn)", got, 4*turn)
	}
}

func TestFSOneIssuePerSlot(t *testing.T) {
	fs := NewFixedService(4)
	c, ch := testSetup(fs, true)
	s := &sink{}
	c.SetEgress(0, s)
	// Core 0 floods; service must be paced at one per 4*slot.
	for i := 0; i < 8; i++ {
		c.TrySend(1, req(uint64(i+1), 0, uint64(i)*64))
	}
	runTicks(c, ch, 1, 8*4*fs.SlotLength+2000)
	if len(s.got) != 8 {
		t.Fatalf("completed %d of 8", len(s.got))
	}
	for i := 1; i < len(s.got); i++ {
		gap := s.got[i].IssuedDRAM - s.got[i-1].IssuedDRAM
		if gap < 3*fs.SlotLength {
			t.Fatalf("issues %d apart, want >= %d (one per rotation)", gap, 3*fs.SlotLength)
		}
	}
}

func TestFSServiceIndependentOfOtherCores(t *testing.T) {
	// Core 0's issue times with and without a flooding neighbour must
	// match exactly — FS's whole point.
	issueTimes := func(withNeighbour bool) []sim.Cycle {
		fs := NewFixedService(4)
		c, ch := testSetup(fs, true)
		s0, s1 := &sink{}, &sink{}
		c.SetEgress(0, s0)
		c.SetEgress(1, s1)
		for i := 0; i < 6; i++ {
			c.TrySend(1, req(uint64(i+1), 0, uint64(i)*64))
		}
		if withNeighbour {
			for i := 0; i < 24; i++ {
				c.TrySend(1, req(uint64(100+i), 1, uint64(i)*64))
			}
		}
		runTicks(c, ch, 1, 30*4*fs.SlotLength)
		var out []sim.Cycle
		for _, r := range s0.got {
			out = append(out, r.IssuedDRAM)
		}
		return out
	}
	alone := issueTimes(false)
	shared := issueTimes(true)
	if len(alone) != len(shared) {
		t.Fatalf("different completion counts: %d vs %d", len(alone), len(shared))
	}
	for i := range alone {
		if alone[i] != shared[i] {
			t.Fatalf("issue %d moved: alone %d, shared %d — FS leaked interference", i, alone[i], shared[i])
		}
	}
}

func TestEgressBackpressureHoldsCompletion(t *testing.T) {
	c, ch := testSetup(FRFCFS{}, false)
	s := &sink{full: true}
	c.SetEgress(0, s)
	c.TrySend(1, req(1, 0, 0))
	runTicks(c, ch, 1, 500)
	if len(s.got) != 0 {
		t.Fatal("completion delivered despite backpressure")
	}
	if c.Stats().Completed != 0 {
		t.Fatal("completion counted despite backpressure")
	}
	s.full = false
	runTicks(c, ch, 501, 600)
	if len(s.got) != 1 {
		t.Fatal("completion lost after backpressure lifted")
	}
}

func TestEgressBackpressureDoesNotBlockOtherCores(t *testing.T) {
	c, ch := testSetup(FRFCFS{}, false)
	blocked, open := &sink{full: true}, &sink{}
	c.SetEgress(0, blocked)
	c.SetEgress(1, open)
	c.TrySend(1, req(1, 0, 0))      // bank 0, will block at egress
	c.TrySend(1, req(2, 1, 8192*2)) // bank 2
	runTicks(c, ch, 1, 800)
	if len(open.got) != 1 {
		t.Fatal("unblocked core's completion stuck behind a blocked one")
	}
}

func TestSchedulerNames(t *testing.T) {
	if (FRFCFS{}).Name() != "FR-FCFS" {
		t.Fatal("FRFCFS name")
	}
	if NewTemporalPartitioning(512, 4).Name() != "TP" {
		t.Fatal("TP name")
	}
	if NewFixedService(4).Name() != "FS" {
		t.Fatal("FS name")
	}
}

func TestMeanOccupancy(t *testing.T) {
	var s ControllerStats
	if s.MeanOccupancy() != 0 {
		t.Fatal("empty occupancy not 0")
	}
	s.Cycles = 10
	s.QueueOccupancySum = 25
	if s.MeanOccupancy() != 2.5 {
		t.Fatalf("occupancy %v", s.MeanOccupancy())
	}
}

func TestBandwidthReserveCapsRate(t *testing.T) {
	br := NewBandwidthReserve(2, 100)
	c, ch := testSetup(br, false)
	s := &sink{}
	c.SetEgress(0, s)
	for i := 0; i < 20; i++ {
		c.TrySend(1, req(uint64(i+1), 0, uint64(i)*64))
	}
	runTicks(c, ch, 1, 1000)
	// Burst allowance (4) plus ~10 refills over 1000 cycles.
	if len(s.got) > 15 {
		t.Fatalf("reservation let %d through in 1000 cycles at 1/100", len(s.got))
	}
	if len(s.got) < 8 {
		t.Fatalf("reservation starved the core: %d", len(s.got))
	}
}

func TestBandwidthReserveIndependentBudgets(t *testing.T) {
	br := NewBandwidthReserve(2, 100)
	c, ch := testSetup(br, false)
	s0, s1 := &sink{}, &sink{}
	c.SetEgress(0, s0)
	c.SetEgress(1, s1)
	// Core 0 floods; core 1 sends a trickle to another bank. Core 1's
	// service must not be affected by core 0's demand.
	for i := 0; i < 30; i++ {
		c.TrySend(1, req(uint64(i+1), 0, uint64(i)*64))
	}
	c.TrySend(1, req(100, 1, 3*8192))
	runTicks(c, ch, 1, 1500)
	if len(s1.got) != 1 {
		t.Fatalf("reserved core starved: %d completions", len(s1.got))
	}
}

func TestBandwidthReserveName(t *testing.T) {
	if NewBandwidthReserve(4, 100).Name() != "BWReserve" {
		t.Fatal("name")
	}
}
