package shaper

import (
	"testing"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// port collects released traffic.
type port struct {
	sent []*mem.Request
	full bool
}

func (p *port) TrySend(_ sim.Cycle, req *mem.Request) bool {
	if p.full {
		return false
	}
	p.sent = append(p.sent, req)
	return true
}

func (p *port) reals() int {
	n := 0
	for _, r := range p.sent {
		if !r.Fake {
			n++
		}
	}
	return n
}

func (p *port) fakes() int { return len(p.sent) - p.reals() }

func cfgWith(credits []int, window sim.Cycle, fake bool) Config {
	return Config{
		Binning:      stats.DefaultBinning(),
		Credits:      credits,
		Window:       window,
		GenerateFake: fake,
		Policy:       PolicyExact,
	}
}

func newReqShaper(cfg Config) (*Shaper, *port, *uint64) {
	p := &port{}
	var id uint64
	s, err := NewRequestShaper(0, cfg, 16, p, sim.NewRNG(1), &id)
	if err != nil {
		panic(err)
	}
	return s, p, &id
}

func TestConfigValidate(t *testing.T) {
	good := cfgWith([]int{1, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 1024, false)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		cfgWith([]int{1, 2}, 1024, false),                          // wrong bin count
		cfgWith([]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1024, false),  // no credits
		cfgWith([]int{-1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 1024, false), // negative
		cfgWith([]int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, false),     // zero window
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTotalCreditsAndBandwidth(t *testing.T) {
	c := cfgWith([]int{2, 0, 0, 0, 0, 0, 0, 0, 0, 2}, 1024, false)
	if c.TotalCredits() != 4 {
		t.Fatalf("total %d", c.TotalCredits())
	}
	if bw := c.MeanBandwidthBytes(64); bw != 4.0*64/1024 {
		t.Fatalf("bandwidth %v", bw)
	}
}

func TestMinWindowSpan(t *testing.T) {
	c := cfgWith([]int{2, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 1024, false)
	// 2 credits at bin 0 (min 1 cycle each) + 1 credit at bin 9 (1024).
	if got := c.MinWindowSpan(); got != 2+1024 {
		t.Fatalf("span %d", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := cfgWith([]int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1024, false)
	d := c.Clone()
	d.Credits[0] = 99
	if c.Credits[0] == 99 {
		t.Fatal("clone shares credits")
	}
}

func TestExactPolicyReleasesInMatchingBin(t *testing.T) {
	// Only bin 5 ([64,128)) has credits; a request arriving back-to-back
	// must wait until its inter-arrival reaches 64.
	credits := make([]int, 10)
	credits[5] = 10
	s, p, _ := newReqShaper(cfgWith(credits, 4096, false))

	s.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	s.TrySend(1, &mem.Request{ID: 2, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 400; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 2 {
		t.Fatalf("released %d of 2", len(p.sent))
	}
	gap := p.sent[1].ShapedAt - p.sent[0].ShapedAt
	if gap < 64 || gap >= 128 {
		t.Fatalf("release gap %d outside bin 5's [64,128)", gap)
	}
}

func TestThrottleStallsWhenCreditsExhausted(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 2 // two back-to-back releases per window
	s, p, _ := newReqShaper(cfgWith(credits, 1024, false))
	for i := 0; i < 4; i++ {
		s.TrySend(1, &mem.Request{ID: uint64(i + 1), CreatedAt: 1})
	}
	for now := sim.Cycle(1); now <= 1000; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 2 {
		t.Fatalf("released %d in first window, want 2", len(p.sent))
	}
	// After replenishment the remaining two go out.
	for now := sim.Cycle(1001); now <= 2000; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 4 {
		t.Fatalf("released %d total after replenish, want 4", len(p.sent))
	}
}

func TestOverflowReleaseAfterLongIdle(t *testing.T) {
	// Credits only in bin 2 ([8,16)); a request whose natural gap has
	// already blown past every credited bin must still release (from the
	// highest credited bin) rather than deadlock.
	credits := make([]int, 10)
	credits[2] = 5
	s, p, _ := newReqShaper(cfgWith(credits, 4096, false))
	s.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 100; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 1 {
		t.Fatal("first release missing")
	}
	// Long idle: next request arrives with inter-arrival ~2000 (bin 9).
	s.TrySend(2000, &mem.Request{ID: 2, CreatedAt: 2000})
	for now := sim.Cycle(2000); now <= 2100; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 2 {
		t.Fatal("overflow release did not fire; shaper deadlocked")
	}
}

func TestExactPolicyWaitsForHigherCreditedBin(t *testing.T) {
	// Credits in bins 2 and 7. A request at inter-arrival in bin 4 must
	// wait until bin 7's lower edge (256), not release early from bin 2.
	credits := make([]int, 10)
	credits[2] = 1
	credits[7] = 1
	s, p, _ := newReqShaper(cfgWith(credits, 4096, false))
	s.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 20; now++ {
		s.Tick(now)
	}
	first := p.sent[0].ShapedAt
	// Next request arrives 40 cycles later (bin 4); bin 4 has no credit.
	s.TrySend(first+40, &mem.Request{ID: 2, CreatedAt: first + 40})
	for now := first + 40; now <= first+600; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 2 {
		t.Fatal("second request never released")
	}
	gap := p.sent[1].ShapedAt - first
	if gap < 256 {
		t.Fatalf("released at gap %d; exact policy should wait for bin 7 (>=256)", gap)
	}
}

func TestAtMostPolicyUsesLowerBins(t *testing.T) {
	credits := make([]int, 10)
	credits[2] = 1
	cfg := cfgWith(credits, 4096, false)
	cfg.Policy = PolicyAtMost
	s, p, _ := newReqShaper(cfg)
	s.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 50; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 1 {
		t.Fatal("at-most policy did not release")
	}
}

func TestFakeTrafficCompensatesIdleWindow(t *testing.T) {
	credits := make([]int, 10)
	credits[3] = 4 // four releases at [16,32) per 1024 window
	s, p, _ := newReqShaper(cfgWith(credits, 1024, true))
	// No real traffic at all: window 1 banks 4 unused credits; window 2
	// emits 4 fakes.
	for now := sim.Cycle(1); now <= 2048; now++ {
		s.Tick(now)
	}
	if p.fakes() < 4 {
		t.Fatalf("only %d fakes generated", p.fakes())
	}
	for _, r := range p.sent {
		if !r.Fake {
			t.Fatal("non-fake traffic with no input")
		}
		if r.Addr%mem.LineSize != 0 {
			t.Fatal("fake address not line aligned")
		}
	}
}

func TestFakeYieldsToRealTraffic(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 8
	s, p, _ := newReqShaper(cfgWith(credits, 1024, true))
	// Idle first window to bank unused credits.
	for now := sim.Cycle(1); now <= 1024; now++ {
		s.Tick(now)
	}
	// Now supply real traffic; reals must flow (fakes only fill gaps).
	for i := 0; i < 4; i++ {
		s.TrySend(1025, &mem.Request{ID: uint64(100 + i), CreatedAt: 1025})
	}
	for now := sim.Cycle(1025); now <= 1100; now++ {
		s.Tick(now)
	}
	if p.reals() != 4 {
		t.Fatalf("reals released %d of 4 while fakes were owed", p.reals())
	}
}

func TestUnusedCreditCap(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 10
	cfg := cfgWith(credits, 1024, true)
	cfg.MaxUnusedWindows = 1
	s, _, _ := newReqShaper(cfg)
	// Three idle windows: unused must cap at one window's worth.
	for now := sim.Cycle(1); now <= 3*1024; now++ {
		s.Tick(now)
	}
	if got := s.bins.unusedLeft(0); got > 10 {
		t.Fatalf("unused credits %d exceed one-window cap", got)
	}
}

func TestReplenishmentRestoresCredits(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 1
	s, p, _ := newReqShaper(cfgWith(credits, 256, false))
	for i := 0; i < 3; i++ {
		s.TrySend(1, &mem.Request{ID: uint64(i + 1), CreatedAt: 1})
	}
	for now := sim.Cycle(1); now <= 3*256+10; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 3 {
		t.Fatalf("released %d across three windows, want 3", len(p.sent))
	}
	st := s.Stats()
	if st.Replenishments < 3 {
		t.Fatalf("replenishments %d", st.Replenishments)
	}
}

func TestDownstreamBackpressureKeepsCredit(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 1
	s, p, _ := newReqShaper(cfgWith(credits, 1024, false))
	p.full = true
	s.TrySend(1, &mem.Request{ID: 1, CreatedAt: 1})
	for now := sim.Cycle(1); now <= 10; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 0 {
		t.Fatal("released into full port")
	}
	if s.bins.creditsLeft(0) != 1 {
		t.Fatal("credit consumed on failed send")
	}
	p.full = false
	s.Tick(11)
	if len(p.sent) != 1 {
		t.Fatal("release lost after backpressure")
	}
}

func TestInputQueueBackpressure(t *testing.T) {
	credits := make([]int, 10)
	credits[9] = 1
	p := &port{}
	var id uint64
	s, err := NewRequestShaper(0, cfgWith(credits, 4096, false), 2, p, sim.NewRNG(1), &id)
	if err != nil {
		t.Fatal(err)
	}
	if !s.TrySend(1, &mem.Request{ID: 1}) || !s.TrySend(1, &mem.Request{ID: 2}) {
		t.Fatal("queue refused under capacity")
	}
	if s.TrySend(1, &mem.Request{ID: 3}) {
		t.Fatal("queue accepted over capacity — no stall signal")
	}
	if s.QueueLen() != 2 {
		t.Fatalf("queue length %d", s.QueueLen())
	}
}

func TestShapedRecorderCountsAllReleases(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 4
	s, p, _ := newReqShaper(cfgWith(credits, 512, true))
	for now := sim.Cycle(1); now <= 2048; now++ {
		s.Tick(now)
	}
	// First release seeds the recorder, so observed = released - 1.
	if got := s.Shaped.Count(); got != uint64(len(p.sent)-1) {
		t.Fatalf("shaped recorder %d, releases %d", got, len(p.sent))
	}
}

func TestReconfigurePreservesStats(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 4
	s, _, _ := newReqShaper(cfgWith(credits, 512, true))
	for now := sim.Cycle(1); now <= 2000; now++ {
		s.Tick(now)
	}
	before := s.Stats()
	newCredits := make([]int, 10)
	newCredits[5] = 2
	if err := s.Reconfigure(cfgWith(newCredits, 512, true)); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.ReleasedFake != before.ReleasedFake {
		t.Fatal("reconfigure lost statistics")
	}
	if s.Config().Credits[5] != 2 {
		t.Fatal("reconfigure did not apply")
	}
}

func TestCreditConservationHoldsAcrossModes(t *testing.T) {
	credits := []int{3, 2, 2, 1, 1, 1, 1, 1, 1, 1}
	for _, pol := range []Policy{PolicyExact, PolicyAtMost, PolicyOblivious} {
		cfg := cfgWith(credits, 512, true)
		cfg.Policy = pol
		s, _, _ := newReqShaper(cfg)
		for now := sim.Cycle(1); now <= 20_000; now++ {
			if now%37 == 0 {
				s.TrySend(now, &mem.Request{ID: uint64(now), CreatedAt: now})
			}
			s.Tick(now)
			if now%1000 == 0 {
				if err := s.CheckConservation(); err != nil {
					t.Fatalf("policy %v at cycle %d: %v", pol, now, err)
				}
			}
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

func TestCreditConservationDetectsCorruption(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 4
	s, _, _ := newReqShaper(cfgWith(credits, 512, true))
	for now := sim.Cycle(1); now <= 600; now++ {
		s.Tick(now)
	}
	// Forge a credit out of thin air: the ledger must notice.
	s.bins.credits[0]++
	if err := s.CheckConservation(); err == nil {
		t.Fatal("forged credit went undetected")
	}
}
