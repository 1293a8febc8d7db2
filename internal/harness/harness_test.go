package harness

import (
	"context"
	"strings"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

func TestWorkloadShape(t *testing.T) {
	workload := func(adversary, victim string) ([]trace.Source, error) {
		return Run{Benchmarks: mix(adversary, victim), TraceSeed: 1}.sources()
	}
	srcs, err := workload("gcc", "astar")
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 4 {
		t.Fatalf("workload has %d sources", len(srcs))
	}
	if _, err := workload("nope", "astar"); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := workload("gcc", "nope"); err == nil {
		t.Fatal("unknown victim accepted")
	}
}

// TestAvgSlowdownRejectsZeroIPC: a Figure 13 core that retired nothing
// is an error naming the adversary and core, not a 0 slowdown.
func TestAvgSlowdownRejectsZeroIPC(t *testing.T) {
	names := []string{"gcc", "mcf", "mcf", "mcf"}
	solo := []float64{1, 1, 1, 1}
	rs := Result{Stats: []cpu.Stats{{Cycles: 100, Work: 50}, {Cycles: 100, Work: 50}, {Cycles: 100, Work: 0}, {Cycles: 100, Work: 50}}}
	_, err := avgSlowdown("TP", "gcc", names, solo, rs)
	if err == nil || !strings.Contains(err.Error(), "adversary gcc") || !strings.Contains(err.Error(), "core 2") {
		t.Fatalf("zero-IPC core: err = %v, want one naming adversary gcc and core 2", err)
	}
	rs.Stats[2].Work = 25
	got, err := avgSlowdown("TP", "gcc", names, solo, rs)
	if err != nil || got != 2.5 {
		t.Fatalf("avgSlowdown = %v, %v; want 2.5 (mean of 2, 2, 4, 2)", got, err)
	}
}

// TestEveryRunHeartbeats: every system an experiment simulates forwards
// supervision-grid heartbeats to the sink in its context, so a supervisor
// watching a job made only of unmeasured runs still sees it is alive.
// Each run starts at cycle 0 and beats there, so the cycle-0 beats count
// the runs that beat.
func TestEveryRunHeartbeats(t *testing.T) {
	cycles := core.SuperviseStride
	for _, tc := range []struct {
		name string
		runs int
		run  func(ctx context.Context) error
	}{
		{"DistributionAccuracy", len(trace.BenchmarkNames()), func(ctx context.Context) error {
			_, err := DistributionAccuracy(ctx, cycles, 1)
			return err
		}},
		{"MutualInformation", 5, func(ctx context.Context) error {
			_, err := MutualInformation(ctx, "astar", cycles, 1)
			return err
		}},
		{"ShapedDistributions", 4, func(ctx context.Context) error {
			_, err := ShapedDistributions(ctx, "bzip", cycles, 1)
			return err
		}},
		{"CovertChannel", 2, func(ctx context.Context) error {
			_, err := CovertChannel(ctx, 0x5, 4, 1) // 6 pulses, above one stride
			return err
		}},
	} {
		beats, starts := 0, 0
		ctx := core.WithHeartbeatFunc(context.Background(), func(hb core.Heartbeat) {
			beats++
			if hb.Cycle == 0 {
				starts++
			}
		})
		if err := tc.run(ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if starts != tc.runs {
			t.Errorf("%s: %d of %d runs heartbeat (%d beats in all)", tc.name, starts, tc.runs, beats)
		}
	}
}

// TestShapedRunsPublishObs: the experiments that read the request
// shaper's raw output also run with an obs bundle in their context, whose
// drift gauges compare that output's histogram with the shaper's target.
func TestShapedRunsPublishObs(t *testing.T) {
	cycles := core.SuperviseStride
	ctx := obs.NewContext(context.Background(), &obs.Bundle{Registry: obs.NewRegistry()})
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"MutualInformation", func() error {
			_, err := MutualInformation(ctx, "astar", cycles, 1)
			return err
		}},
		{"WithinWindowLeakage", func() error {
			_, err := WithinWindowLeakage(ctx, "bzip", []sim.Cycle{1024}, cycles, 1)
			return err
		}},
		{"TradeoffSpace", func() error {
			_, err := TradeoffSpace(ctx, "bzip", cycles, 1)
			return err
		}},
		{"EpochRateComparison", func() error {
			_, err := EpochRateComparison(ctx, "bzip", cycles, 1)
			return err
		}},
	} {
		if err := tc.run(); err != nil {
			t.Errorf("%s under an obs bundle: %v", tc.name, err)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") || !strings.Contains(out, "x") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, row
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	s := Sparkline([]int{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q", s)
	}
	flat := Sparkline([]int{0, 0})
	if len([]rune(flat)) != 2 {
		t.Fatalf("flat sparkline %q", flat)
	}
}

func TestBandwidthInterval(t *testing.T) {
	// 1 GB/s at 2.4 GHz with 64 B lines: one request per ~153.6 cycles.
	got := BandwidthInterval(1e9)
	if got < 150 || got > 157 {
		t.Fatalf("interval %d, want ~154", got)
	}
	if BandwidthInterval(1e15) != 1 {
		t.Fatal("huge bandwidth should clamp to 1")
	}
}

func TestSchemeCapabilityTable(t *testing.T) {
	out := SchemeCapabilityTable().String()
	for _, want := range []string{"ReqC", "RespC", "BDC", "TP", "CS", "FS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %s:\n%s", want, out)
		}
	}
}

func TestBaseConfigTable(t *testing.T) {
	out := BaseConfigTable().String()
	for _, want := range []string{"DDR3-1333", "32-entry", "8 banks", "128 KB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestDesiredStaircaseFeasible(t *testing.T) {
	cfg := DesiredStaircase()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.MinWindowSpan() > cfg.Window {
		t.Fatalf("staircase infeasible: span %d > window %d", cfg.MinWindowSpan(), cfg.Window)
	}
	for i := 0; i < len(cfg.Credits)-1; i++ {
		if cfg.Credits[i] <= cfg.Credits[i+1] {
			t.Fatalf("staircase not decreasing: %v", cfg.Credits)
		}
	}
}

func TestCovertDefenseConfig(t *testing.T) {
	cfg := CovertDefenseConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.GenerateFake {
		t.Fatal("covert defense without fake traffic is useless")
	}
	if cfg.Window >= CovertPulse {
		t.Fatal("covert defense window must be well below the pulse")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("x,1", `say "hi"`)
	tb.AddRow("plain", "2")
	got := tb.CSV()
	want := "a,b\n\"x,1\",\"say \"\"hi\"\"\"\nplain,2\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", got, want)
	}
}

func TestResultTablesRender(t *testing.T) {
	// Every result type must render a non-degenerate table and CSV; use
	// tiny hand-built results so this stays instant.
	tables := []*Table{
		(&ScalabilityResult{Rows: []ScalabilityRow{{Cores: 4, TPSlowdown: 2, BRSlowdown: 1, CamouflageSlowdown: 1.1}}}).Table(),
		(&EpochRateResult{Benchmark: "gcc", Rows: []EpochRateRow{{Scheme: "CS (fixed rate)", IPC: 0.5, MI: 0, LeakBoundBits: 0}, {Scheme: "NoShaping", IPC: 1, MI: 3, LeakBoundBits: -1}}}).Table(),
		(&WindowLeakResult{Benchmark: "bzip", Rows: []WindowLeakRow{{Window: 512, Randomized: true, MI: 0.5, IPC: 0.7}}}).Table(),
		(&MITTSFairnessResult{Workload: []string{"a", "b"}, SlowdownsUnshaped: []float64{1, 2}, SlowdownsShaped: []float64{1.5, 1.2}, WorstTenantUnshaped: 2, WorstTenantShaped: 1.2, FairnessUnshaped: 0.9, FairnessShaped: 0.95}).Table(),
		(&HeadlineResult{VsCS: 1.1, VsTP: 1.5, VsFS: 1.3}).Table(),
	}
	for i, tb := range tables {
		out := tb.String()
		if len(out) < 20 || len(tb.Rows) == 0 {
			t.Errorf("table %d degenerate:\n%s", i, out)
		}
		csv := tb.CSV()
		if len(csv) < 10 {
			t.Errorf("table %d CSV degenerate: %q", i, csv)
		}
	}
}

func TestCovertChannelResultTable(t *testing.T) {
	r := &CovertChannelResult{
		Key: 0xAB, KeyLen: 4,
		SentBits:     []int{1, 0, 1, 0},
		BeforeCounts: []int{40, 1, 40, 1},
		AfterCounts:  []int{50, 50, 50, 50},
	}
	out := r.Table().String()
	for _, want := range []string{"0xAB", "sent bits", "1010"} {
		if !contains(out, want) {
			t.Errorf("covert table missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
