package shaper

import (
	"testing"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

func TestEpochRateSetConfig(t *testing.T) {
	rates := []sim.Cycle{64, 128, 256}
	cfg := EpochRateSet(stats.DefaultBinning(), rates, 8192, 4096, true)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PeriodicInterval != 256 {
		t.Fatalf("starting interval %d, want the slowest (256)", cfg.PeriodicInterval)
	}
	if cfg.EpochLength != 8192 || len(cfg.EpochRates) != 3 {
		t.Fatalf("epoch fields %d/%d", cfg.EpochLength, len(cfg.EpochRates))
	}
}

func TestEpochRateValidation(t *testing.T) {
	cfg := EpochRateSet(stats.DefaultBinning(), []sim.Cycle{64}, 8192, 4096, true)
	cfg.EpochLength = 0
	if cfg.Validate() == nil {
		t.Fatal("zero epoch length accepted")
	}
	cfg = EpochRateSet(stats.DefaultBinning(), []sim.Cycle{64}, 8192, 4096, true)
	cfg.EpochRates[0] = 0
	if cfg.Validate() == nil {
		t.Fatal("zero rate accepted")
	}
	cfg = EpochRateSet(stats.DefaultBinning(), []sim.Cycle{64}, 8192, 4096, true)
	cfg.PeriodicInterval = 0
	if cfg.Validate() == nil {
		t.Fatal("epoch rates without periodic interval accepted")
	}
}

func TestEpochRateAdaptsToDemand(t *testing.T) {
	rates := []sim.Cycle{32, 128, 512}
	cfg := EpochRateSet(stats.DefaultBinning(), rates, 4096, 4096, false)
	// A deep input queue so backpressure does not hide demand from the
	// rate selector.
	p := &port{}
	var id mem.IDSource
	s, err := NewRequestShaper(0, cfg, 256, p, sim.NewRNG(1), &id)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: heavy demand (one arrival every ~40 cycles = 102 per
	// epoch; only the 32-cycle rate can serve >= 102 slots).
	for now := sim.Cycle(1); now <= 4096; now++ {
		if now%40 == 0 {
			s.TrySend(now, &mem.Request{ID: uint64(now), CreatedAt: now})
		}
		s.Tick(now)
	}
	// Epoch 2: the shaper must have switched to the fastest rate.
	var epoch2Start, epoch2End int
	epoch2Start = len(p.sent)
	for now := sim.Cycle(4097); now <= 8192; now++ {
		if now%40 == 0 {
			s.TrySend(now, &mem.Request{ID: uint64(now), CreatedAt: now})
		}
		s.Tick(now)
	}
	epoch2End = len(p.sent)
	st := s.Stats()
	if st.Epochs == 0 || st.RateChanges == 0 {
		t.Fatalf("no epoch switching: %+v", st)
	}
	// At 32-cycle slots, epoch 2 can serve ~102 arrivals; at 512 it
	// would cap at 8.
	served := epoch2End - epoch2Start
	if served < 50 {
		t.Fatalf("epoch 2 served only %d — rate did not adapt up", served)
	}

	// Epoch 3+: demand stops; the rate must fall back to the slowest.
	for now := sim.Cycle(8193); now <= 20480; now++ {
		s.Tick(now)
	}
	if s.bins.curInterval != 512 {
		t.Fatalf("idle rate %d, want slowest 512", s.bins.curInterval)
	}
}

func TestEpochRateSlotSpacingHonoursCurrentRate(t *testing.T) {
	rates := []sim.Cycle{64, 256}
	cfg := EpochRateSet(stats.DefaultBinning(), rates, 2048, 4096, true)
	s, p, _ := newReqShaper(cfg)
	for now := sim.Cycle(1); now <= 2048; now++ {
		s.Tick(now)
	}
	// Idle first epoch at the slowest rate (256): fakes every 256.
	for i := 1; i < len(p.sent); i++ {
		if gap := p.sent[i].ShapedAt - p.sent[i-1].ShapedAt; gap != 256 {
			t.Fatalf("idle epoch cadence %d, want 256", gap)
		}
	}
}

func TestEpochLeakageBound(t *testing.T) {
	// The design's security contract: leakage <= Epochs x log2(rates).
	rates := []sim.Cycle{32, 64, 128, 256}
	cfg := EpochRateSet(stats.DefaultBinning(), rates, 1024, 4096, true)
	s, _, _ := newReqShaper(cfg)
	for now := sim.Cycle(1); now <= 16*1024; now++ {
		s.Tick(now)
	}
	st := s.Stats()
	if st.Epochs != 16 {
		t.Fatalf("epochs %d, want 16", st.Epochs)
	}
	// 16 epochs x log2(4) = 32 bits bound; just confirm the counters
	// that feed the bound are exact.
	if st.RateChanges > st.Epochs {
		t.Fatalf("rate changes %d exceed epochs %d", st.RateChanges, st.Epochs)
	}
}
