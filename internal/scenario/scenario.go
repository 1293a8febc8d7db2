// Package scenario loads declarative experiment descriptions from JSON
// and maps them onto system configurations and trace sources. A scenario
// names the per-core workloads (benchmark profiles or recorded trace
// files), the protection scheme, and any shaper configurations —
// everything needed to reproduce a run without writing Go:
//
//	{
//	  "name": "bdc-demo",
//	  "scheme": "bdc",
//	  "cycles": 500000,
//	  "cores": [
//	    {"workload": "mcf", "resp_shaper": {"credits": [4,3,2,1,1,1,1,1,1,1]}},
//	    {"workload": "astar", "req_shaper": {"credits": [10,9,8,7,6,5,4,3,2,1], "fake": true}},
//	    {"workload": "astar"},
//	    {"workload": "astar"}
//	  ]
//	}
//
// The package also owns the rule that turns workload names into trace
// sources (Sources), which camsim's -workload and -scenario paths and
// chaossoak share. camsim accepts scenarios via -scenario.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// ShaperSpec is the JSON form of a shaper configuration.
type ShaperSpec struct {
	// Credits per bin over the default ten-bin binning. Required unless
	// PeriodicInterval is set.
	Credits []int `json:"credits,omitempty"`
	// Window is the replenishment period in cycles (default 4096).
	Window uint64 `json:"window,omitempty"`
	// Fake enables the fake traffic generator.
	Fake bool `json:"fake,omitempty"`
	// Policy is "exact" (default), "at-most" or "oblivious".
	Policy string `json:"policy,omitempty"`
	// PeriodicInterval switches to strict constant-rate mode.
	PeriodicInterval uint64 `json:"periodic_interval,omitempty"`
	// Randomize enables §IV-B4 within-bin release jitter.
	Randomize bool `json:"randomize,omitempty"`
}

// CoreSpec describes one core's workload and optional shapers.
type CoreSpec struct {
	// Workload is a benchmark profile name (see trace.BenchmarkNames) or
	// a path to a recorded trace file, replayed in a loop.
	Workload string `json:"workload"`
	// ReqShaper and RespShaper attach Camouflage hardware to this core
	// (the scheme must permit them).
	ReqShaper  *ShaperSpec `json:"req_shaper,omitempty"`
	RespShaper *ShaperSpec `json:"resp_shaper,omitempty"`
}

// Scenario is a complete runnable description.
type Scenario struct {
	Name   string     `json:"name"`
	Scheme string     `json:"scheme"`
	Cycles uint64     `json:"cycles,omitempty"`
	Seed   uint64     `json:"seed,omitempty"`
	Cores  []CoreSpec `json:"cores"`

	// Optional substrate knobs.
	Channels         int    `json:"channels,omitempty"`
	TPTurnLength     uint64 `json:"tp_turn_length,omitempty"`
	BRRefillInterval uint64 `json:"br_refill_interval,omitempty"`
	ClosedPage       bool   `json:"closed_page,omitempty"`
	FSBankPartition  bool   `json:"fs_bank_partition,omitempty"`
}

// Load parses a scenario from r.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// ParseScheme maps a scenario scheme string to a core.Scheme.
func ParseScheme(s string) (core.Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "noshaping", "none", "frfcfs":
		return core.NoShaping, nil
	case "cs":
		return core.CS, nil
	case "tp":
		return core.TP, nil
	case "fs":
		return core.FS, nil
	case "reqc":
		return core.ReqC, nil
	case "respc":
		return core.RespC, nil
	case "bdc":
		return core.BDC, nil
	case "br":
		return core.BR, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scheme %q", s)
	}
}

// ParsePolicy maps a shaper policy string to a shaper.Policy.
func ParsePolicy(s string) (shaper.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exact":
		return shaper.PolicyExact, nil
	case "at-most", "atmost":
		return shaper.PolicyAtMost, nil
	case "oblivious":
		return shaper.PolicyOblivious, nil
	default:
		return 0, fmt.Errorf("scenario: unknown policy %q", s)
	}
}

// Validate checks structural consistency (deeper validation happens when
// the shaper configs are built).
func (s *Scenario) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("scenario %q: no cores", s.Name)
	}
	if _, err := ParseScheme(s.Scheme); err != nil {
		return err
	}
	for i, c := range s.Cores {
		if c.Workload == "" {
			return fmt.Errorf("scenario %q: core %d has no workload", s.Name, i)
		}
		for _, sp := range []*ShaperSpec{c.ReqShaper, c.RespShaper} {
			if sp == nil {
				continue
			}
			if _, err := ParsePolicy(sp.Policy); err != nil {
				return err
			}
			if len(sp.Credits) == 0 && sp.PeriodicInterval == 0 {
				return fmt.Errorf("scenario %q: core %d shaper needs credits or periodic_interval", s.Name, i)
			}
		}
	}
	return nil
}

// shaperConfig materializes a spec.
func (sp *ShaperSpec) shaperConfig() (shaper.Config, error) {
	window := sim.Cycle(sp.Window)
	if window == 0 {
		window = 4 * shaper.DefaultWindow
	}
	if sp.PeriodicInterval > 0 {
		cfg := shaper.ConstantRate(stats.DefaultBinning(), sim.Cycle(sp.PeriodicInterval), window, sp.Fake)
		cfg.RandomizeWithinBin = sp.Randomize
		return cfg, nil
	}
	pol, err := ParsePolicy(sp.Policy)
	if err != nil {
		return shaper.Config{}, err
	}
	b := stats.DefaultBinning()
	credits := make([]int, b.N())
	copy(credits, sp.Credits)
	cfg := shaper.Config{
		Binning:            b,
		Credits:            credits,
		Window:             window,
		GenerateFake:       sp.Fake,
		Policy:             pol,
		RandomizeWithinBin: sp.Randomize,
	}
	if err := cfg.Validate(); err != nil {
		return shaper.Config{}, err
	}
	return cfg, nil
}

// Names returns each core's workload name.
func (s *Scenario) Names() []string {
	names := make([]string, len(s.Cores))
	for i, c := range s.Cores {
		names[i] = c.Workload
	}
	return names
}

// Config maps the scenario onto a system configuration: its scheme,
// seed (1 when unset), substrate knobs and per-core shapers.
func (s *Scenario) Config() (core.Config, error) {
	scheme, err := ParseScheme(s.Scheme)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Cores = len(s.Cores)
	cfg.Scheme = scheme
	cfg.Seed = s.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if s.Channels > 0 {
		cfg.Geometry.Channels = s.Channels
	}
	if s.TPTurnLength > 0 {
		cfg.TPTurnLength = sim.Cycle(s.TPTurnLength)
	}
	if s.BRRefillInterval > 0 {
		cfg.BRRefillInterval = sim.Cycle(s.BRRefillInterval)
	}
	cfg.ClosedPage = s.ClosedPage
	cfg.FSBankPartition = s.FSBankPartition
	for i, c := range s.Cores {
		if err := attach(&cfg.PerCoreReqCfg, &cfg.ReqShaperCores, i, c.ReqShaper, "request"); err != nil {
			return core.Config{}, err
		}
		if err := attach(&cfg.PerCoreRespCfg, &cfg.RespShaperCores, i, c.RespShaper, "response"); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}

// attach installs sp, when set, as core i's shaper in cfgs and cores.
func attach(cfgs *map[int]shaper.Config, cores *[]int, i int, sp *ShaperSpec, kind string) error {
	if sp == nil {
		return nil
	}
	sc, err := sp.shaperConfig()
	if err != nil {
		return fmt.Errorf("core %d %s shaper: %w", i, kind, err)
	}
	if *cfgs == nil {
		*cfgs = map[int]shaper.Config{}
	}
	(*cfgs)[i] = sc
	*cores = append(*cores, i)
	return nil
}

// Sources resolves each core's workload name, trimmed of surrounding
// spaces, to a trace source: a readable file is a recorded trace (see
// tracecap) replayed in a loop, any other name a benchmark profile. The
// generator streams fork one per core, in core order, from seed+17, so
// a core's stream does not depend on what the other cores run.
func Sources(names []string, seed uint64) ([]trace.Source, error) {
	rng := sim.NewRNG(seed + 17)
	sources := make([]trace.Source, len(names))
	for i, name := range names {
		src, err := resolveWorkload(strings.TrimSpace(name), rng.Fork())
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		sources[i] = src
	}
	return sources, nil
}

// resolveWorkload maps a workload name to a trace source.
func resolveWorkload(name string, rng *sim.RNG) (trace.Source, error) {
	if f, err := os.Open(name); err == nil {
		defer f.Close()
		entries, rerr := trace.ReadTrace(f)
		if rerr != nil {
			return nil, fmt.Errorf("%s: %w", name, rerr)
		}
		return trace.NewLoopSource(entries), nil
	}
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return trace.NewGenerator(p, rng)
}
