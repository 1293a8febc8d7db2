// Package core assembles the full simulated system and implements the
// paper's three Camouflage mechanisms as deployable configurations:
// Request Camouflage (ReqC) at each protected core's LLC egress, Response
// Camouflage (RespC) at the memory controller egress, and Bi-directional
// Camouflage (BDC) combining both. It also provides the paper's baselines
// — no shaping (FR-FCFS), constant-rate shaping (CS, the Ascend/Fletcher
// design point), Temporal Partitioning (TP) and Fixed Service (FS) with
// bank partitioning — behind one Scheme switch so experiments compare them
// on identical substrates.
package core

import (
	"fmt"

	"camouflage/internal/cpu"
	"camouflage/internal/dram"
	"camouflage/internal/memctrl"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// Scheme selects the timing-channel protection mechanism for a run.
type Scheme uint8

// The protection schemes of Table I.
const (
	// NoShaping is the insecure FR-FCFS baseline.
	NoShaping Scheme = iota
	// CS is constant-rate shaping of requests (Ascend / Fletcher et al.):
	// Camouflage degenerated to a single active bin.
	CS
	// TP is Temporal Partitioning of the memory scheduler (Wang et al.).
	TP
	// FS is Fixed Service scheduling with bank partitioning (Shafiee et al.).
	FS
	// ReqC shapes request inter-arrival times at the core side.
	ReqC
	// RespC shapes response inter-arrival times at the controller egress.
	RespC
	// BDC shapes both directions.
	BDC
	// BR is per-core bandwidth reservation in the memory controller
	// (Gundu et al., the paper's reference [37]): a fixed token rate per
	// core, wasted when unused.
	BR
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case NoShaping:
		return "NoShaping"
	case CS:
		return "CS"
	case TP:
		return "TP"
	case FS:
		return "FS"
	case ReqC:
		return "ReqC"
	case RespC:
		return "RespC"
	case BDC:
		return "BDC"
	case BR:
		return "BR"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// Capabilities reports which threat models a scheme defends (Table I).
type Capabilities struct {
	PinBusMonitoring  bool
	MemorySideChannel bool
}

// SchemeCapabilities returns Table I's capability matrix.
func SchemeCapabilities(s Scheme) Capabilities {
	switch s {
	case ReqC, CS:
		return Capabilities{PinBusMonitoring: true}
	case RespC, TP, FS:
		return Capabilities{MemorySideChannel: true}
	case BDC:
		return Capabilities{PinBusMonitoring: true, MemorySideChannel: true}
	case BR:
		return Capabilities{MemorySideChannel: true}
	default:
		return Capabilities{}
	}
}

// Config describes a full system. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// Cores is the number of simulated cores (the paper uses 4).
	Cores int
	// CPU configures each core (window, cache, MSHRs).
	CPU cpu.Config
	// Timing and Geometry configure DRAM (Table II's DDR3-1333).
	Timing   dram.Timing
	Geometry dram.Geometry
	// QueueDepth is the memory controller transaction queue (32).
	QueueDepth int
	// NoCLatency is the one-way shared-channel latency in cycles.
	NoCLatency sim.Cycle
	// NoCWidth is transfers accepted per cycle on each link.
	NoCWidth int
	// NoCInputDepth bounds each core's link injection queue.
	NoCInputDepth int

	// Scheme selects the protection mechanism.
	Scheme Scheme

	// ReqShaperCfg configures ReqC instances (schemes ReqC, CS and BDC).
	// ReqShaperCores lists the cores shaped; nil means all cores.
	ReqShaperCfg   *shaper.Config
	ReqShaperCores []int
	// RespShaperCfg configures RespC instances (schemes RespC and BDC).
	// RespShaperCores lists the shaped cores; nil means all cores.
	RespShaperCfg   *shaper.Config
	RespShaperCores []int
	// PerCoreReqCfg/PerCoreRespCfg override the shared shaper config for
	// individual cores (the GA optimizes all cores' bins independently).
	PerCoreReqCfg  map[int]shaper.Config
	PerCoreRespCfg map[int]shaper.Config

	// TPTurnLength is the Temporal Partitioning turn, in cycles.
	TPTurnLength sim.Cycle
	// TPDomains is the number of security domains (0 = one per core).
	TPDomains int

	// FSBankPartition enables bank partitioning with FS (the paper's FS
	// configuration; rank partitioning is not evaluated since the base
	// system has one rank).
	FSBankPartition bool

	// BRRefillInterval is the bandwidth-reservation scheme's per-core
	// token refill interval in cycles (0 = an equal split of a practical
	// one-transaction-per-25-cycles channel across cores).
	BRRefillInterval sim.Cycle

	// ClosedPage switches DRAM to a closed-page (auto-precharge) policy:
	// uniform access latency at the cost of the row-hit fast path — a
	// hardening knob orthogonal to traffic shaping.
	ClosedPage bool

	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns the paper's Table II system: 4 cores, private
// 128 KB L2s, one DDR3-1333 channel with 8 banks, and a 32-entry
// transaction queue, under the NoShaping scheme.
func DefaultConfig() Config {
	return Config{
		Cores:         4,
		CPU:           cpu.DefaultConfig(),
		Timing:        dram.DDR3_1333(),
		Geometry:      dram.DefaultGeometry(),
		QueueDepth:    32,
		NoCLatency:    8,
		NoCWidth:      1,
		NoCInputDepth: 8,
		Scheme:        NoShaping,
		TPTurnLength:  512,
		Seed:          1,
	}
}

// DefaultShaperConfig returns a ReqC/RespC configuration with the default
// ten exponential bins, a gently decreasing credit profile and fake
// traffic enabled — a reasonable starting point before GA optimization.
func DefaultShaperConfig() shaper.Config {
	b := stats.DefaultBinning()
	credits := make([]int, b.N())
	for i := range credits {
		credits[i] = b.N() - i
	}
	return shaper.Config{
		Binning:      b,
		Credits:      credits,
		Window:       shaper.DefaultWindow,
		GenerateFake: true,
		Policy:       shaper.PolicyExact,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("core: Cores must be positive")
	}
	if err := c.CPU.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch c.Scheme {
	case ReqC, CS, BDC:
		if c.ReqShaperCfg == nil && len(c.PerCoreReqCfg) == 0 {
			return fmt.Errorf("core: scheme %v requires a request shaper config", c.Scheme)
		}
	}
	switch c.Scheme {
	case RespC, BDC:
		if c.RespShaperCfg == nil && len(c.PerCoreRespCfg) == 0 {
			return fmt.Errorf("core: scheme %v requires a response shaper config", c.Scheme)
		}
	}
	if dead := memctrl.TPDeadTime(); c.Scheme == TP && c.TPTurnLength < dead {
		return fmt.Errorf("core: scheme TP requires TPTurnLength >= the %d-cycle dead time (got %d): no transaction could ever issue", dead, c.TPTurnLength)
	}
	if c.ReqShaperCfg != nil {
		if err := c.ReqShaperCfg.Validate(); err != nil {
			return err
		}
	}
	if c.RespShaperCfg != nil {
		if err := c.RespShaperCfg.Validate(); err != nil {
			return err
		}
	}
	for core, cfg := range c.PerCoreReqCfg {
		if core < 0 || core >= c.Cores {
			return fmt.Errorf("core: PerCoreReqCfg for invalid core %d", core)
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	for core, cfg := range c.PerCoreRespCfg {
		if core < 0 || core >= c.Cores {
			return fmt.Errorf("core: PerCoreRespCfg for invalid core %d", core)
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// reqShapedCores resolves which cores get a request shaper.
func (c Config) reqShapedCores() []int {
	switch c.Scheme {
	case ReqC, CS, BDC:
	default:
		return nil
	}
	return c.resolveCores(c.ReqShaperCores, c.PerCoreReqCfg)
}

// respShapedCores resolves which cores get a response shaper.
func (c Config) respShapedCores() []int {
	switch c.Scheme {
	case RespC, BDC:
	default:
		return nil
	}
	return c.resolveCores(c.RespShaperCores, c.PerCoreRespCfg)
}

func (c Config) resolveCores(explicit []int, perCore map[int]shaper.Config) []int {
	if len(explicit) > 0 {
		return explicit
	}
	if len(perCore) > 0 {
		out := make([]int, 0, len(perCore))
		for core := range perCore {
			out = append(out, core)
		}
		sortInts(out)
		return out
	}
	out := make([]int, c.Cores)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// reqCfgFor returns the request shaper config for core.
func (c Config) reqCfgFor(core int) shaper.Config {
	if cfg, ok := c.PerCoreReqCfg[core]; ok {
		return cfg
	}
	return *c.ReqShaperCfg
}

// respCfgFor returns the response shaper config for core.
func (c Config) respCfgFor(core int) shaper.Config {
	if cfg, ok := c.PerCoreRespCfg[core]; ok {
		return cfg
	}
	return *c.RespShaperCfg
}
