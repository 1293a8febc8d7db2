package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

const bdcScenario = `{
  "name": "bdc-demo",
  "scheme": "bdc",
  "cycles": 100000,
  "cores": [
    {"workload": "mcf", "resp_shaper": {"credits": [4,3,2,1,1,1,1,1,1,1], "fake": true}},
    {"workload": "astar", "req_shaper": {"credits": [10,9,8,7,6,5,4,3,2,1], "fake": true}},
    {"workload": "astar", "req_shaper": {"credits": [10,9,8,7,6,5,4,3,2,1], "fake": true}},
    {"workload": "astar"}
  ]
}`

// build materializes s the way camsim does: its Config, fed by the
// Sources of its workloads.
func build(s *Scenario) (*core.System, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	sources, err := Sources(s.Names(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(cfg, sources)
}

func TestLoadAndBuildBDC(t *testing.T) {
	s, err := Load(strings.NewReader(bdcScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "bdc-demo" || len(s.Cores) != 4 {
		t.Fatalf("parsed %+v", s)
	}
	sys, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	if sys.RespShapers[0] == nil {
		t.Fatal("response shaper not attached to core 0")
	}
	if sys.ReqShapers[1] == nil || sys.ReqShapers[2] == nil {
		t.Fatal("request shapers not attached to cores 1-2")
	}
	if sys.ReqShapers[3] != nil {
		t.Fatal("core 3 should be unshaped")
	}
	sys.Run(50_000)
	if sys.SystemIPC() <= 0 {
		t.Fatal("scenario system made no progress")
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []string{
		`{}`, // no cores
		`{"scheme": "warp", "cores": [{"workload": "mcf"}]}`,                   // bad scheme
		`{"scheme": "reqc", "cores": [{"workload": ""}]}`,                      // empty workload
		`{"scheme": "reqc", "cores": [{"workload": "mcf", "req_shaper": {}}]}`, // empty shaper
		`{"scheme": "reqc", "cores": [{"workload": "mcf"}], "bogus": 1}`,       // unknown field
		`not json`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestParseScheme(t *testing.T) {
	cases := map[string]core.Scheme{
		"":       core.NoShaping,
		"frfcfs": core.NoShaping,
		"CS":     core.CS,
		"tp":     core.TP,
		"fs":     core.FS,
		"reqc":   core.ReqC,
		"RespC":  core.RespC,
		"bdc":    core.BDC,
		"br":     core.BR,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]shaper.Policy{
		"":          shaper.PolicyExact,
		"exact":     shaper.PolicyExact,
		"at-most":   shaper.PolicyAtMost,
		"atmost":    shaper.PolicyAtMost,
		"Oblivious": shaper.PolicyOblivious,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPeriodicShaperSpec(t *testing.T) {
	src := `{
	  "scheme": "cs",
	  "cores": [
	    {"workload": "gcc", "req_shaper": {"periodic_interval": 154, "fake": true}}
	  ]
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ReqShapers[0].Config().PeriodicInterval; got != 154 {
		t.Fatalf("periodic interval %d", got)
	}
}

func TestScenarioWithRecordedTrace(t *testing.T) {
	// Capture a short trace to disk and reference it from a scenario.
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(p, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	entries := trace.Capture(gen, 5000)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, entries); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src := `{"scheme": "noshaping", "cores": [{"workload": "` + path + `"}]}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30_000)
	if sys.CoreStats(0).Refs == 0 {
		t.Fatal("recorded-trace workload issued nothing")
	}
}

func TestSubstrateKnobs(t *testing.T) {
	src := `{
	  "scheme": "tp",
	  "channels": 2,
	  "tp_turn_length": 256,
	  "closed_page": true,
	  "cores": [{"workload": "astar"}, {"workload": "astar"}]
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Channels) != 2 {
		t.Fatalf("channels %d", len(sys.Channels))
	}
	sys.Run(20_000)
	if sys.Channel.Stats().RowHits != 0 {
		t.Fatal("closed_page knob ignored")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/s.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSourcesProfiles(t *testing.T) {
	srcs, err := Sources([]string{"mcf", " astar "}, 1)
	if err != nil || len(srcs) != 2 {
		t.Fatalf("Sources: %v, %d sources", err, len(srcs))
	}
	if _, err := Sources([]string{"not-a-benchmark"}, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSourcesReplaysTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(p, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	entries := trace.Capture(gen, 100)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, entries); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srcs, err := Sources([]string{path}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := srcs[0].Next()
	if !ok || e != entries[0] {
		t.Fatalf("replay head %+v, want %+v", e, entries[0])
	}
	// A corrupt file must error rather than fall back silently.
	bad := filepath.Join(dir, "bad.trace")
	os.WriteFile(bad, []byte("CAMTgarbage"), 0o644)
	if _, err := Sources([]string{bad}, 1); err == nil {
		t.Fatal("corrupt trace accepted")
	}
}
