package harness

import (
	"context"
	"fmt"

	"camouflage/internal/attack"
	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// Run is one simulation of an experiment: the system configuration, the
// workload, how long it runs and which observers watch it. Every system
// the harness simulates is built, armed and measured through a Run.
type Run struct {
	Config core.Config
	// Benchmarks names each core's benchmark, generated from TraceSeed.
	// A lone benchmark takes TraceSeed's stream itself; several fork
	// one child stream per core.
	Benchmarks []string
	// Sources, when set, replaces Benchmarks with explicit streams.
	// Sources are stateful, so such a Run runs once.
	Sources   []trace.Source
	TraceSeed uint64
	// Warmup cycles run before the Cycles whose counters Do reports. A
	// Run with a warmup is a measured run and carries the invariant
	// checkers (see Do).
	Warmup, Cycles sim.Cycle

	// Watch is the core that Bus, Probe, RespHist and Shaped follow.
	Watch int
	// Bus attaches a bus monitor to Watch's request traffic.
	Bus bool
	// Probe attaches Watch's observable response-latency probe.
	Probe bool
	// RespHist records Watch's response inter-arrival histogram.
	RespHist bool
	// ReqHists records every core's request inter-arrival histogram.
	ReqHists bool
	// Shaped keeps the raw inter-arrivals of Watch's request-shaper
	// output (Result.ShaperOut.Raw), for mutual-information measurement.
	Shaped bool
}

// Result is what a Run measured. It holds no reference to the system,
// so keeping a Result does not keep the system's memory alive.
type Result struct {
	// Stats holds each core's counters accumulated after the warmup.
	Stats []cpu.Stats

	Bus      *attack.BusMonitor
	Probe    *attack.ObservableProbe
	RespHist *stats.Histogram
	ReqHists []*stats.Histogram
	// Watch's request shaper, when it has one: its counters and the
	// recorders of its offered (In) and released (Out) inter-arrivals.
	ShaperStats         shaper.Stats
	ShaperIn, ShaperOut *stats.InterArrivalRecorder
}

// ipc returns core i's post-warmup work per cycle.
func (r Result) ipc(i int) float64 { return r.Stats[i].IPC() }

// systemIPC sums per-core IPCs.
func (r Result) systemIPC() float64 {
	var t float64
	for i := range r.Stats {
		t += r.ipc(i)
	}
	return t
}

// sources returns r's per-core trace sources.
func (r Run) sources() ([]trace.Source, error) {
	if r.Sources != nil {
		return r.Sources, nil
	}
	rng := sim.NewRNG(r.TraceSeed)
	srcs := make([]trace.Source, len(r.Benchmarks))
	for i, name := range r.Benchmarks {
		p, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		stream := rng
		if len(r.Benchmarks) > 1 {
			stream = rng.Fork()
		}
		if srcs[i], err = trace.NewGenerator(p, stream); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// Build constructs r's system, attaches r's observers and arms it with
// the context's heartbeat sink and obs bundle (under obs.Label(ctx)). It
// runs nothing: the caller drives the system, and the observers in the
// Result fill as it runs.
func (r Run) Build(ctx context.Context) (*core.System, Result, error) {
	srcs, err := r.sources()
	if err != nil {
		return nil, Result{}, err
	}
	sys, err := core.NewSystem(r.Config, srcs)
	if err != nil {
		return nil, Result{}, err
	}
	var res Result
	w := r.Watch
	if r.Bus {
		res.Bus = attack.NewBusMonitor(w)
		sys.ReqNet.AddTap(res.Bus.Observe)
	}
	if r.Probe {
		res.Probe = attack.NewObservableProbe(w)
		sys.ReqNet.AddTap(res.Probe.ObserveRequest)
		sys.RespNet.AddTap(res.Probe.ObserveResponse)
	}
	if r.RespHist {
		rec := stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
		res.RespHist = rec.Hist
		sys.RespNet.AddTap(func(now sim.Cycle, req *mem.Request) {
			if req.Core == w {
				rec.Observe(now)
			}
		})
	}
	if r.ReqHists {
		recs := make([]*stats.InterArrivalRecorder, len(sys.Cores))
		for i := range recs {
			recs[i] = stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
			res.ReqHists = append(res.ReqHists, recs[i].Hist)
		}
		sys.ReqNet.AddTap(func(now sim.Cycle, req *mem.Request) {
			recs[req.Core].Observe(now)
		})
	}
	if r.Shaped {
		sys.ReqShapers[w].Shaped.KeepRaw = true
	}
	sys.EnableObs(obs.FromContext(ctx), obs.Label(ctx))
	sys.SetHeartbeat(core.HeartbeatFuncFromContext(ctx))
	return sys, res, nil
}

// Do builds r and runs it for Warmup then Cycles cycles, returning each
// core's counters over the Cycles and the observers' outputs. A Run with
// a warmup is a measured run: Do enables the invariant checkers before
// it starts. Runs without one collect traces and run unchecked, as do
// the GA's systems from Build: checking every run left the paper's
// output unchanged but cost about 27% more CPU, most of it in the GA. A
// supervised-run failure (invariant violation, panic, deadline) is
// returned with whatever was measured.
func (r Run) Do(ctx context.Context) (Result, error) {
	sys, res, err := r.Build(ctx)
	if err != nil {
		return res, err
	}
	if r.Warmup > 0 {
		sys.EnableChecks(check.Options{})
		if err := sys.RunContext(ctx, r.Warmup); err != nil {
			return res, fmt.Errorf("warmup: %w", err)
		}
	}
	before := make([]cpu.Stats, len(sys.Cores))
	for i := range sys.Cores {
		before[i] = sys.CoreStats(i)
	}
	runErr := sys.RunContext(ctx, r.Cycles)
	res.Stats = make([]cpu.Stats, len(sys.Cores))
	for i := range sys.Cores {
		after := sys.CoreStats(i)
		res.Stats[i] = cpu.Stats{
			Cycles:            after.Cycles - before[i].Cycles,
			Work:              after.Work - before[i].Work,
			Refs:              after.Refs - before[i].Refs,
			MemStallCycles:    after.MemStallCycles - before[i].MemStallCycles,
			ShaperStallCycles: after.ShaperStallCycles - before[i].ShaperStallCycles,
			Responses:         after.Responses - before[i].Responses,
			FakeResponses:     after.FakeResponses - before[i].FakeResponses,
		}
	}
	if sh := sys.ReqShapers[r.Watch]; sh != nil {
		res.ShaperStats, res.ShaperIn, res.ShaperOut = sh.Stats(), sh.Intrinsic, sh.Shaped
	}
	return res, runErr
}

// seeded returns the default system configuration with the given core
// count and system seed.
func seeded(cores int, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Cores = cores
	cfg.Seed = seed
	return cfg
}

// soloRun is a slowdown denominator: the named benchmark alone on one
// core of the default system, measured after a warmup.
func soloRun(name string, traceSeed uint64, cycles sim.Cycle) Run {
	cfg := core.DefaultConfig()
	cfg.Cores = 1
	return Run{Config: cfg, Benchmarks: []string{name}, TraceSeed: traceSeed, Warmup: WarmupCycles, Cycles: cycles}
}

// withReqC returns cfg under ReqC with sc on the given cores (all when
// none are named).
func withReqC(cfg core.Config, sc shaper.Config, cores ...int) core.Config {
	cfg.Scheme = core.ReqC
	cfg.ReqShaperCfg = &sc
	cfg.ReqShaperCores = cores
	return cfg
}

// withRespC returns cfg under RespC with sc on the given cores (all when
// none are named).
func withRespC(cfg core.Config, sc shaper.Config, cores ...int) core.Config {
	cfg.Scheme = core.RespC
	cfg.RespShaperCfg = &sc
	cfg.RespShaperCores = cores
	return cfg
}

// mix names the paper's w(adversary, victim) workload: the adversary on
// core 0 and three copies of the victim on cores 1–3.
func mix(adversary, victim string) []string {
	return []string{adversary, victim, victim, victim}
}
