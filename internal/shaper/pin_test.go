package shaper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// pinnedShaper is the surface the pin test drives; both shaper
// directions satisfy it.
type pinnedShaper interface {
	TrySend(now sim.Cycle, req *mem.Request) bool
	Tick(now sim.Cycle)
	Reconfigure(cfg Config) error
	Stats() Stats
	Snapshot(e *ckpt.Encoder)
}

// pinPort is a congested output port: it reports itself full on a fixed
// cycle pattern (so the shaper takes its burn-the-draw path) and refuses
// every 7th offered transaction (so the construct-then-reject path runs
// too). Every accepted transaction is folded into the hash.
type pinPort struct {
	now    sim.Cycle
	offers int
	h      hash.Hash
}

func (p *pinPort) Full() bool { return p.now%11 == 5 || p.now%97 < 3 }

func (p *pinPort) TrySend(now sim.Cycle, req *mem.Request) bool {
	if p.Full() {
		return false
	}
	p.offers++
	if p.offers%7 == 0 {
		return false
	}
	fake := uint64(0)
	if req.Fake {
		fake = 1
	}
	pinWrite(p.h, 1, uint64(now), req.ID, req.Addr, fake,
		uint64(req.CreatedAt), uint64(req.ShapedAt), uint64(req.ReadyAt), uint64(req.RespShaped))
	return true
}

// pinElevator folds every priority warning into the hash.
type pinElevator struct{ h hash.Hash }

func (e *pinElevator) Elevate(core, level int, until sim.Cycle) {
	pinWrite(e.h, 2, uint64(core), uint64(level), uint64(until))
}

func pinWrite(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// pinDigest runs a fixed arrival script through one shaper for 20k
// cycles and returns the SHA-256 of everything it released, every
// priority warning, the final Stats and the final Snapshot bytes. The
// Stats are returned too, so the caller can check the script reached the
// paths the digest is meant to cover.
func pinDigest(t *testing.T, response bool, cfg Config) (string, Stats) {
	t.Helper()
	h := sha256.New()
	p := &pinPort{h: h}
	var id uint64
	var s pinnedShaper
	var err error
	if response {
		s, err = NewResponseShaper(1, cfg, 8, p, &pinElevator{h: h}, sim.NewRNG(11), &id)
	} else {
		s, err = NewRequestShaper(1, cfg, 8, p, sim.NewRNG(11), &id)
	}
	if err != nil {
		t.Fatal(err)
	}
	arrivals := sim.NewRNG(5)
	var pending *mem.Request
	for now := sim.Cycle(0); now < 20000; now++ {
		p.now = now
		// Four phases per 5000 cycles: a dense burst, silence, sparse
		// random arrivals, and a moderate steady stream.
		if pending == nil {
			var arrive bool
			switch phase := (now / 1250) % 4; phase {
			case 0:
				arrive = now%3 == 0
			case 2:
				arrive = arrivals.Intn(40) == 0
			case 3:
				arrive = now%17 == 0
			}
			if arrive {
				id++
				pending = &mem.Request{ID: id, Core: 1, Addr: uint64(now) * 64, Op: mem.Read, CreatedAt: now}
				if response {
					pending.CreatedAt = now - now%50
					pending.ReadyAt = now
				}
			}
		}
		if pending != nil && s.TrySend(now, pending) {
			pending = nil
		}
		if now == 12345 {
			if err := s.Reconfigure(cfg); err != nil {
				t.Fatal(err)
			}
		}
		s.Tick(now)
	}
	st := s.Stats()
	pinWrite(h, 3, st.ReleasedReal, st.ReleasedFake, st.DelayedCycles, st.Replenishments,
		st.UnusedSaved, st.WarningsSent, st.Epochs, st.RateChanges)
	var e ckpt.Encoder
	s.Snapshot(&e)
	h.Write(e.Bytes())
	return hex.EncodeToString(h.Sum(nil)), st
}

// TestShaperModesPinned is a byte-level oracle for every shaping mode in
// both directions: the release stream, priority warnings, counters and
// checkpoint image of a fixed 20k-cycle script must match digests
// recorded from a known-good build. It is the only oracle that runs the
// oblivious policy byte for byte, so a refactor of the release paths
// must leave it untouched.
func TestShaperModesPinned(t *testing.T) {
	b := stats.DefaultBinning()
	credit := func(policy Policy, fake bool) Config {
		cfg := cfgWith([]int{2, 1, 2, 3, 2, 2, 1, 1, 0, 1}, 1024, fake)
		cfg.Policy = policy
		cfg.MaxUnusedWindows = 2
		return cfg
	}
	modes := []struct {
		name string
		cfg  func(fake bool) Config
	}{
		{"exact", func(fake bool) Config { return credit(PolicyExact, fake) }},
		{"at-most", func(fake bool) Config { return credit(PolicyAtMost, fake) }},
		{"oblivious", func(fake bool) Config { return credit(PolicyOblivious, fake) }},
		{"periodic", func(fake bool) Config { return ConstantRate(b, 48, 1024, fake) }},
		{"epoch-rate", func(fake bool) Config {
			return EpochRateSet(b, []sim.Cycle{16, 64, 256}, 2048, 1024, fake)
		}},
	}
	type pinCase struct {
		name     string
		response bool
		cfg      Config
	}
	var cases []pinCase
	for _, dir := range []string{"request", "response"} {
		for _, m := range modes {
			for _, fake := range []bool{true, false} {
				name := dir + "/" + m.name + "/fake-off"
				if fake {
					name = dir + "/" + m.name + "/fake-on"
				}
				cases = append(cases, pinCase{name, dir == "response", m.cfg(fake)})
			}
		}
		jitter := credit(PolicyExact, true)
		jitter.RandomizeWithinBin = true
		cases = append(cases, pinCase{dir + "/exact-randomized/fake-on", dir == "response", jitter})
	}
	want := map[string]string{
		"request/exact/fake-on":             "614a4d5097bc13abd0fc748284c8e615ae4188adaa3ff7ff0c8f952c13bcbe1d",
		"request/exact/fake-off":            "60ba884c0db720749f37315e2d53d1ec42f4e4d632b20f984adec51d50a692b2",
		"request/at-most/fake-on":           "e35777ba8d2e1ba39eeb13e827dff2d9fe1f633a3762be986bdf2b8d10e64a1b",
		"request/at-most/fake-off":          "735376d50e515653863104bd8fbb4cc16737d2e575e0301a1df09239f0ee2265",
		"request/oblivious/fake-on":         "2db4d3cbd9ad4aaa7a276c743637bea0377592156801a152066b64d50ff06744",
		"request/oblivious/fake-off":        "e2628c117dc896e5dc8e958af6fd1cc2f926411513e86f136d2b64f33afc5bca",
		"request/periodic/fake-on":          "b9312621fc7699643ad055dd5b384be5643291046e84cbf6291416826d9a42bb",
		"request/periodic/fake-off":         "0af81ceedef1815b5d16ee1b23a6a223b4859e6d16b16c69163cbfda609c1d2f",
		"request/epoch-rate/fake-on":        "23d83b8b6908dca3a46fede9f23459e6778b290a45a660b6c20491f7205180c4",
		"request/epoch-rate/fake-off":       "b5faae88c770971ceda1aa66f9f26d74407e015ba70a6c73b295c85d14f67e9f",
		"request/exact-randomized/fake-on":  "67cb86bcf2f9b5eb0b962f734aea47422071ee4a0314c7cea19e24bc936f5f19",
		"response/exact/fake-on":            "b066da59f0f27654322fd2fc5d77714c2ea3e286657d3d2fe6acbfe0b93ceb0e",
		"response/exact/fake-off":           "2c632cb30f0be68182d9235fd8318640fe7465632c2ffa89f255d9aca568f7be",
		"response/at-most/fake-on":          "7914d820e22407e356720a947f79cf41ddb9779ded648ad1ce1764a49c8fe940",
		"response/at-most/fake-off":         "be5e9e0a35acc519857adbb0ba3b4a92c5d20365c914daf5e79fdef849a5ce0e",
		"response/oblivious/fake-on":        "43710ca0eeecdc3aef1cfd4b452501fd61dd580eabc31ca6accc182d33a0a0c8",
		"response/oblivious/fake-off":       "81729f5f5fe23c16456ac0134db595b3a6c4dc7b084a90ffa739a7fcd3a4cc73",
		"response/periodic/fake-on":         "beda73fdf6074c2e81ebd2856bde27c48d33f6676fd0ca061f77b94a6f3b7fe1",
		"response/periodic/fake-off":        "9190bb949dee5718816e6cb6f86ca97cd27322a6898df701275d647a441b186b",
		"response/epoch-rate/fake-on":       "16e52c5e418c45800b6d23b90ea71852f2d6dd47db0dc1f5e6b3f788ee4f38c2",
		"response/epoch-rate/fake-off":      "12624d7ab272a2e1ebcc455868af05b2725313e08ab3921a1af2fbd8f12b227f",
		"response/exact-randomized/fake-on": "255539ba4bac4bcd3280f975a7b97bc5c816bde6454ebcedaf351a75b5ff8789",
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, st := pinDigest(t, c.response, c.cfg)
			if st.ReleasedReal == 0 || c.cfg.GenerateFake != (st.ReleasedFake > 0) {
				t.Errorf("script missed a release path: %+v", st)
			}
			if c.response && c.cfg.PeriodicInterval == 0 && st.WarningsSent == 0 {
				t.Errorf("script sent no priority warning: %+v", st)
			}
			if w, ok := want[c.name]; !ok || got != w {
				t.Errorf("digest %s, want %s", got, w)
			}
		})
	}
}
