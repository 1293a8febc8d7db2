package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/check"
	"camouflage/internal/fault"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

func csConstantConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = CS
	req := shaper.ConstantRate(stats.DefaultBinning(), 64, 4096, false)
	cfg.ReqShaperCfg = &req
	return cfg
}

func csEpochConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = CS
	req := shaper.EpochRateSet(stats.DefaultBinning(), []sim.Cycle{64, 128, 256}, 8192, 4096, true)
	cfg.ReqShaperCfg = &req
	return cfg
}

// diffRun assembles one fully instrumented system — checkers on, delay
// faults injected, registry and tracer attached — runs it in segments,
// and captures every externally observable artifact: a full checkpoint
// after each segment, the final stats tables, the registry dump, and
// the trace files.
type diffArtifacts struct {
	ckpts    [][]byte
	stats    string
	registry string
	jsonl    []byte
	chrome   []byte
	skipped  sim.Cycle
	eligible bool
}

func diffRun(t *testing.T, cfg Config, names []string, fast bool, segments int, segLen sim.Cycle) diffArtifacts {
	t.Helper()
	sys := mustSystem(cfg, sources(cfg.Cores, names...))
	sys.Kernel.SetFastPath(fast)
	mon := sys.EnableChecks(check.Options{})
	// Delay-only faults: they perturb NoC timing (and therefore every
	// downstream queue and RNG draw) without tripping the flow or
	// protocol checkers the way drops and duplicates would.
	sys.InjectFaults(fault.NewInjector(fault.Options{DelayProb: 0.02, DelayCycles: 24}, sim.NewRNG(99)))

	base := filepath.Join(t.TempDir(), "trace")
	tr, err := obs.NewTracer(base, 4, 7)
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	sys.EnableObs(&obs.Bundle{Registry: obs.NewRegistry(), Tracer: tr}, "diff")

	var art diffArtifacts
	art.eligible = sys.Kernel.FastPathEligible()
	for seg := 0; seg < segments; seg++ {
		if err := sys.Run(segLen); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		art.ckpts = append(art.ckpts, encodeState(t, sys))
	}
	if mon.Violated() {
		t.Fatalf("checker violation during run: %v", mon.Violations())
	}

	var sb strings.Builder
	for i := range sys.Cores {
		fmt.Fprintf(&sb, "core %d: %+v\n", i, sys.CoreStats(i))
	}
	for ch, mc := range sys.MCs {
		fmt.Fprintf(&sb, "mc %d: %+v\n", ch, mc.Stats())
	}
	for ch, c := range sys.Channels {
		fmt.Fprintf(&sb, "dram %d: %+v\n", ch, c.Stats())
	}
	for i, sh := range sys.ReqShapers {
		if sh != nil {
			fmt.Fprintf(&sb, "req shaper %d: %+v\n", i, sh.Stats())
		}
	}
	for i, sh := range sys.RespShapers {
		if sh != nil {
			fmt.Fprintf(&sb, "resp shaper %d: %+v\n", i, sh.Stats())
		}
	}
	art.stats = sb.String()

	sys.PublishObs()
	art.registry = stripFastPathGauges(sys.obs.Registry.Dump())
	art.skipped = sys.Kernel.SkippedCycles()

	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	if art.jsonl, err = os.ReadFile(base + ".jsonl"); err != nil {
		t.Fatalf("read jsonl: %v", err)
	}
	if art.chrome, err = os.ReadFile(base + ".json"); err != nil {
		t.Fatalf("read chrome trace: %v", err)
	}
	return art
}

// stripFastPathGauges removes the two telemetry lines that describe how
// the clock advanced rather than where the simulation is — the only
// observables allowed to differ between a fast-path and a stepped run.
func stripFastPathGauges(dump string) string {
	var out []string
	for _, ln := range strings.Split(dump, "\n") {
		if strings.Contains(ln, "sim.skipped_cycles") || strings.Contains(ln, "sim.clock_jumps") {
			continue
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n")
}

// TestFastPathByteIdentical is the fast path's headline oracle: for
// every shaping scheme family, a run with idle-cycle skipping enabled
// must be indistinguishable — byte for byte — from a forced
// cycle-stepped run across every artifact the simulator can emit:
// mid-run checkpoints, final stats tables, the metrics registry, and
// the request-lifecycle trace files. Checkers and fault injection stay
// on throughout so the comparison covers the supervised path, not a
// stripped-down kernel.
func TestFastPathByteIdentical(t *testing.T) {
	const (
		segments = 2
		segLen   = 40_000
	)
	scenarios := []struct {
		name      string
		cfg       func() Config
		names     []string
		wantSkips bool
	}{
		// All-sjeng is the paper's least memory-intensive profile: long
		// compute gaps are exactly the idle spans the fast path exists
		// to skip, so here skipping must actually happen.
		{"noshaping-idle", DefaultConfig, []string{"sjeng"}, true},
		{"noshaping-mixed", DefaultConfig, []string{"sjeng", "h264ref", "gobmk", "mcf"}, false},
		{"cs-constant", csConstantConfig, []string{"sjeng", "h264ref", "gobmk", "mcf"}, false},
		{"bd-credit", bdcConfig, []string{"sjeng", "h264ref", "gobmk", "mcf"}, false},
		{"bd-epoch", csEpochConfig, []string{"sjeng", "h264ref", "gobmk", "mcf"}, false},
		// Saturated shaping: the controller queue stays full, so the
		// request link, the controller, DRAM and the request shapers
		// park on the queue ahead of them and replay their refusals in
		// bulk. The BDC and ReqC scenarios must actually skip.
		{"bdc-saturated", bdcConfig, []string{"mcf"}, true},
		{"bdc-saturated-2ch", func() Config {
			cfg := bdcConfig()
			cfg.Geometry.Channels = 2
			return cfg
		}, []string{"mcf"}, true},
		{"reqc-fake-saturated", func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = ReqC
			req := DefaultShaperConfig()
			cfg.ReqShaperCfg = &req
			return cfg
		}, []string{"mcf", "libqt", "mcf", "mcf"}, true},
		{"respc-saturated", func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = RespC
			resp := DefaultShaperConfig()
			cfg.RespShaperCfg = &resp
			return cfg
		}, []string{"mcf"}, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			fast := diffRun(t, sc.cfg(), sc.names, true, segments, segLen)
			stepped := diffRun(t, sc.cfg(), sc.names, false, segments, segLen)

			if !fast.eligible {
				t.Fatal("fast run not fast-path eligible: some component lost its NextWake hint")
			}
			if stepped.skipped != 0 {
				t.Fatalf("forced-stepped run skipped %d cycles", stepped.skipped)
			}
			t.Logf("fast run skipped %d of %d cycles", fast.skipped, segments*segLen)
			if sc.wantSkips && fast.skipped == 0 {
				t.Fatal("workload produced zero skipped cycles: fast path never engaged")
			}

			for seg := range fast.ckpts {
				if !bytes.Equal(fast.ckpts[seg], stepped.ckpts[seg]) {
					t.Errorf("checkpoint after segment %d differs (fast %d bytes, stepped %d bytes)",
						seg, len(fast.ckpts[seg]), len(stepped.ckpts[seg]))
				}
			}
			if fast.stats != stepped.stats {
				t.Errorf("stats tables differ:\n--- fast ---\n%s--- stepped ---\n%s", fast.stats, stepped.stats)
			}
			if fast.registry != stepped.registry {
				t.Errorf("registry dumps differ:\n--- fast ---\n%s\n--- stepped ---\n%s", fast.registry, stepped.registry)
			}
			if !bytes.Equal(fast.jsonl, stepped.jsonl) {
				t.Errorf("span logs differ (fast %d bytes, stepped %d bytes)", len(fast.jsonl), len(stepped.jsonl))
			}
			if !bytes.Equal(fast.chrome, stepped.chrome) {
				t.Errorf("chrome traces differ (fast %d bytes, stepped %d bytes)", len(fast.chrome), len(stepped.chrome))
			}
		})
	}
}
