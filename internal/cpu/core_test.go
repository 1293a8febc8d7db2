package cpu

import (
	"testing"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// echoPort accepts requests and lets the test deliver responses manually.
type echoPort struct {
	sent []*mem.Request
	full bool
}

func (p *echoPort) TrySend(_ sim.Cycle, req *mem.Request) bool {
	if p.full {
		return false
	}
	p.sent = append(p.sent, req)
	return true
}

func newCore(entries []trace.Entry) (*Core, *echoPort) {
	var id mem.IDSource
	c := mustNew(0, DefaultConfig(), trace.NewSliceSource(entries), &id)
	p := &echoPort{}
	c.SetOut(p)
	return c, p
}

func run(c *Core, from, to sim.Cycle) {
	for now := from; now <= to; now++ {
		c.Tick(now)
	}
}

func TestComputeOnlyProgress(t *testing.T) {
	c, p := newCore([]trace.Entry{{Gap: 50, Idle: true}})
	run(c, 1, 100)
	if !c.Finished() {
		t.Fatal("finite trace did not finish")
	}
	if len(p.sent) != 0 {
		t.Fatal("idle entry issued memory traffic")
	}
	if c.Stats().Work < 50 {
		t.Fatalf("work %d, want >= 50", c.Stats().Work)
	}
}

func TestMissIssuedDownstream(t *testing.T) {
	c, p := newCore([]trace.Entry{{Gap: 0, Addr: 0x10000}})
	run(c, 1, 10)
	if len(p.sent) != 1 {
		t.Fatalf("sent %d requests, want 1", len(p.sent))
	}
	if p.sent[0].Core != 0 || p.sent[0].Op != mem.Read {
		t.Fatalf("request %+v", p.sent[0])
	}
}

func TestBlockingLoadStallsUntilResponse(t *testing.T) {
	c, p := newCore([]trace.Entry{
		{Gap: 0, Addr: 0x10000, Blocking: true},
		{Gap: 0, Addr: 0x20000},
	})
	run(c, 1, 50)
	if len(p.sent) != 1 {
		t.Fatalf("core ran past a blocking load: %d requests", len(p.sent))
	}
	stallBefore := c.Stats().MemStallCycles
	if stallBefore == 0 {
		t.Fatal("no memory stalls counted while blocked")
	}
	// Deliver the response; the second access must then issue.
	resp := p.sent[0]
	resp.Op = mem.Read
	c.TrySend(51, resp)
	run(c, 52, 80)
	if len(p.sent) != 2 {
		t.Fatal("core did not resume after response")
	}
}

func TestNonBlockingLoadsOverlap(t *testing.T) {
	entries := make([]trace.Entry, 4)
	for i := range entries {
		entries[i] = trace.Entry{Gap: 0, Addr: uint64(i+1) * 0x10000}
	}
	c, p := newCore(entries)
	run(c, 1, 20)
	if len(p.sent) != 4 {
		t.Fatalf("non-blocking misses did not overlap: %d outstanding", len(p.sent))
	}
}

func TestMSHRLimitStallsCore(t *testing.T) {
	cfg := DefaultConfig()
	n := cfg.Cache.MSHRs + 4
	entries := make([]trace.Entry, n)
	for i := range entries {
		entries[i] = trace.Entry{Gap: 0, Addr: uint64(i+1) * 0x10000}
	}
	var id mem.IDSource
	c := mustNew(0, cfg, trace.NewSliceSource(entries), &id)
	p := &echoPort{}
	c.SetOut(p)
	run(c, 1, 100)
	if len(p.sent) != cfg.Cache.MSHRs {
		t.Fatalf("issued %d, want MSHR limit %d", len(p.sent), cfg.Cache.MSHRs)
	}
	// Respond to one; exactly one more miss must issue.
	c.TrySend(101, p.sent[0])
	run(c, 102, 150)
	if len(p.sent) != cfg.Cache.MSHRs+1 {
		t.Fatalf("issued %d after one response", len(p.sent))
	}
}

func TestShaperBackpressureStallsCore(t *testing.T) {
	c, p := newCore([]trace.Entry{{Gap: 0, Addr: 0x10000}, {Gap: 0, Addr: 0x20000}})
	p.full = true
	run(c, 1, 30)
	if c.Stats().ShaperStallCycles == 0 {
		t.Fatal("no shaper stalls counted under backpressure")
	}
	p.full = false
	run(c, 31, 60)
	if len(p.sent) != 2 {
		t.Fatalf("requests lost under backpressure: %d", len(p.sent))
	}
}

func TestFakeResponsesDropped(t *testing.T) {
	c, _ := newCore([]trace.Entry{{Gap: 100, Idle: true}})
	c.TrySend(1, &mem.Request{ID: 999, Fake: true})
	st := c.Stats()
	if st.FakeResponses != 1 || st.Responses != 0 {
		t.Fatalf("fake response accounting: %+v", st)
	}
}

func TestOnResponseHook(t *testing.T) {
	c, p := newCore([]trace.Entry{{Gap: 0, Addr: 0x10000}})
	var hooked []*mem.Request
	c.OnResponse = func(_ sim.Cycle, resp *mem.Request) { hooked = append(hooked, resp) }
	run(c, 1, 10)
	c.TrySend(20, p.sent[0])
	if len(hooked) != 1 {
		t.Fatal("OnResponse hook not called")
	}
	c.TrySend(21, &mem.Request{Fake: true})
	if len(hooked) != 1 {
		t.Fatal("OnResponse called for fake response")
	}
}

func TestIPCAccounting(t *testing.T) {
	c, _ := newCore([]trace.Entry{{Gap: 10, Idle: true}})
	run(c, 1, 10)
	st := c.Stats()
	if st.Cycles != 10 {
		t.Fatalf("cycles %d", st.Cycles)
	}
	if st.IPC() <= 0 || st.IPC() > 1 {
		t.Fatalf("IPC %v", st.IPC())
	}
}

func TestAlphaAccounting(t *testing.T) {
	c, _ := newCore([]trace.Entry{{Gap: 0, Addr: 0x10000, Blocking: true}})
	run(c, 1, 100)
	st := c.Stats()
	if st.Alpha() <= 0.5 {
		t.Fatalf("blocked core alpha %v, want > 0.5", st.Alpha())
	}
}

func TestWritebackDrains(t *testing.T) {
	// Fill one set with dirty lines, then evict: the writeback must
	// eventually reach the downstream port.
	cfg := DefaultConfig()
	numSets := cfg.Cache.SizeBytes / cfg.Cache.LineBytes / uint64(cfg.Cache.Ways)
	stride := numSets * cfg.Cache.LineBytes
	var entries []trace.Entry
	for w := 0; w <= cfg.Cache.Ways; w++ {
		entries = append(entries, trace.Entry{Gap: 0, Addr: uint64(w) * stride, Write: true})
	}
	var id mem.IDSource
	c := mustNew(0, cfg, trace.NewSliceSource(entries), &id)
	p := &echoPort{}
	c.SetOut(p)
	for now := sim.Cycle(1); now <= 2000; now++ {
		c.Tick(now)
		// Echo read fills back immediately so the trace advances.
		for _, r := range p.sent {
			if r.Op == mem.Read && r.DeliveredAt == 0 {
				c.TrySend(now, r)
			}
		}
	}
	wbs := 0
	for _, r := range p.sent {
		if r.Op == mem.Write {
			wbs++
		}
	}
	if wbs == 0 {
		t.Fatal("no writeback reached the memory system")
	}
}

func TestClockedSourceReceivesTime(t *testing.T) {
	sender := trace.NewCovertSender(0b1, 1, 100, 2, false)
	var id mem.IDSource
	c := mustNew(0, DefaultConfig(), sender, &id)
	p := &echoPort{}
	c.SetOut(p)
	for now := sim.Cycle(1); now <= 300; now++ {
		c.Tick(now)
		for _, r := range p.sent {
			if r.DeliveredAt == 0 {
				c.TrySend(now, r)
			}
		}
	}
	if len(p.sent) == 0 {
		t.Fatal("clocked covert sender issued nothing")
	}
	if !c.Finished() {
		t.Fatal("covert sender did not finish after its pulses")
	}
}

// mustNew is New panicking on error, for tests whose configs are known
// valid.
func mustNew(id int, cfg Config, src trace.Source, ids *mem.IDSource) *Core {
	c, err := New(id, cfg, src, ids)
	if err != nil {
		panic(err)
	}
	return c
}
