// Command camsim runs a multi-program workload on the simulated memory
// system under a chosen timing-protection scheme and reports per-core and
// system statistics.
//
//	camsim -workload gcc,astar,astar,astar -scheme bdc -cycles 1000000
//	camsim -scenario experiment.json
//
// Schemes: noshaping, cs, tp, fs, reqc, respc, bdc, br. For the shaping
// schemes, request shapers default to each core's measured distribution
// and the response shaper (respc/bdc) protects core 0. Workload names
// that are readable files load as recorded traces (see tracecap); a
// -scenario JSON file describes everything declaratively (see
// internal/scenario).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/check"
	"camouflage/internal/ckpt"
	"camouflage/internal/core"
	"camouflage/internal/fault"
	"camouflage/internal/harness"
	"camouflage/internal/iofault"
	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/scenario"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// runOpts carries the supervision, observability and checkpoint flags
// shared by both run paths.
type runOpts struct {
	faults   fault.Options
	watchdog bool
	deadline time.Duration
	obs      *obs.Bundle

	// ckptDir arms periodic crash-safe checkpoints every ckptEvery
	// cycles; resumeFrom restarts from a checkpoint file (or the newest
	// valid one in a directory) instead of cycle 0.
	ckptDir    string
	ckptEvery  sim.Cycle
	resumeFrom string

	// ioInj, when non-nil, is the chaos layer: every checkpoint and
	// resume file operation and the obs listener route through it.
	ioInj *iofault.Injector

	// hb, when non-nil, streams supervision-grid heartbeats to a
	// process-isolation supervisor (this process is a re-exec'd worker).
	hb *campaign.HeartbeatWriter
}

func main() {
	workload := flag.String("workload", "gcc,astar,astar,astar", "comma-separated benchmark list, one per core")
	schemeName := flag.String("scheme", "noshaping", "noshaping, cs, tp, fs, reqc, respc, bdc, br")
	cycles := flag.Uint64("cycles", 1_000_000, "cycles to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scenarioPath := flag.String("scenario", "", "run a declarative JSON scenario instead of -workload/-scheme")
	faultsSpec := flag.String("faults", "", "fault injection: drop=P,dup=P,delay=P[:cycles],trace=P,timing (empty = none)")
	watchdog := flag.Bool("watchdog", false, "enable runtime invariant checking (credit ledger, flow conservation, DRAM protocol, forward-progress watchdog)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the run, e.g. 30s (0 = none)")
	obsCLI := obs.RegisterFlags(flag.CommandLine)
	ckptDir := flag.String("checkpoint-dir", "", "write periodic crash-safe checkpoints into this directory (keeps the newest 2)")
	ckptEvery := flag.Uint64("checkpoint-every", 100_000, "simulated cycles between automatic checkpoints (with -checkpoint-dir)")
	resumeFrom := flag.String("resume-from", "", "resume from this checkpoint file, or the newest valid checkpoint in this directory; -cycles is the total, so the run covers only the remainder")
	ioFaultsSpec := flag.String("io-faults", "", "inject infrastructure faults into checkpoint/resume file I/O and the obs listener: write=P,torn=P,sync=P,rename=P,read=P,corrupt=P,slow=P[:dur],accept=P,connwrite=P,seed=N (empty = none)")
	isolation := flag.String("isolation", "inproc", "run execution mode: inproc, or process (re-exec the run in a supervised worker restarted on crash/stall/RSS breach, resuming from -checkpoint-dir)")
	memLimit := flag.String("mem-limit", "", "with -isolation=process: kill and restart a worker whose RSS exceeds this (e.g. 2GiB; empty = no ceiling)")
	stallTimeout := flag.Duration("stall-timeout", campaign.DefaultStallTimeout, "with -isolation=process: escalate a worker with no heartbeat for this long (SIGTERM, then SIGKILL)")
	flag.Parse()

	memBytes, err := campaign.ParseBytes(*memLimit)
	exitOn(err)
	switch campaign.Isolation(*isolation) {
	case campaign.IsolationProcess:
		os.Exit(superviseSelf(*stallTimeout, memBytes, *ckptDir, *resumeFrom))
	case campaign.IsolationInProc, "":
	default:
		exitOn(fmt.Errorf("unknown -isolation mode %q (inproc or process)", *isolation))
	}

	opts := runOpts{
		watchdog:   *watchdog,
		deadline:   *deadline,
		ckptDir:    *ckptDir,
		ckptEvery:  sim.Cycle(*ckptEvery),
		resumeFrom: *resumeFrom,
		hb:         workerHeartbeats(),
	}
	if *ioFaultsSpec != "" {
		iopt, err := iofault.ParseSpec(*ioFaultsSpec)
		exitOn(err)
		opts.ioInj = iofault.NewInjector(iopt)
	}

	// Observability instruments the measured system only (the shaper
	// measurement stays bare). Under -isolation=process the re-exec'd
	// child carries the same flags, so alert logs and history dumps come
	// from the measuring process and stay byte-identical across modes.
	opts.obs, err = obsCLI.Start(*seed, false)
	exitOn(err)
	exitOn(obsCLI.Serve(&obs.Server{Faults: opts.ioInj}))

	if opts.faults, err = fault.ParseSpec(*faultsSpec); err == nil {
		var sp spec
		if *scenarioPath != "" {
			sp, err = fromScenario(*scenarioPath, sim.Cycle(*cycles))
		} else {
			sp, err = fromWorkload(*workload, *schemeName, *seed, sim.Cycle(*cycles))
		}
		if err == nil {
			err = reportRun(sp, opts)
		}
	}
	err = errors.Join(err, obsCLI.Close())
	if opts.ioInj != nil {
		// Stats go to stderr so chaos runs keep stdout byte-comparable to
		// clean runs.
		fmt.Fprintf(os.Stderr, "iofaults [%s]: %s\n", opts.ioInj.Options(), opts.ioInj.Stats())
	}
	if opts.hb != nil {
		opts.hb.Emit(campaign.FrameDone)
	}
	exitOn(err)
}

// exitOn prints err and exits with status 1, when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "camsim:", err)
		os.Exit(1)
	}
}

// spec is the run -workload or -scenario describes: the system
// configuration, each core's workload name (see scenario.Sources), the
// obs label, the report header and the total cycle count.
type spec struct {
	cfg           core.Config
	names         []string
	label, header string
	cycles        sim.Cycle
}

// fromScenario loads a declarative scenario. The scenario's own cycle
// count wins over the flag when set.
func fromScenario(path string, cycles sim.Cycle) (spec, error) {
	s, err := scenario.LoadFile(path)
	if err != nil {
		return spec{}, err
	}
	if s.Cycles > 0 {
		cycles = sim.Cycle(s.Cycles)
	}
	cfg, err := s.Config()
	return spec{cfg, s.Names(), "scenario/" + s.Name, fmt.Sprintf("scenario=%s scheme=%s", s.Name, s.Scheme), cycles}, err
}

// fromWorkload describes the -workload list under -scheme. Shaping
// schemes need configurations; RespC and BDC derive theirs from a short
// unshaped measurement run so the shaped distributions match each core's
// own traffic.
func fromWorkload(workload, schemeName string, seed uint64, cycles sim.Cycle) (spec, error) {
	names := strings.Split(workload, ",")
	scheme, err := scenario.ParseScheme(schemeName)
	if err != nil {
		return spec{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Cores = len(names)
	cfg.Seed = seed
	cfg.Scheme = scheme
	switch scheme {
	case core.CS:
		sc := shaper.ConstantRate(stats.DefaultBinning(), harness.BandwidthInterval(1e9), 4*shaper.DefaultWindow, true)
		cfg.ReqShaperCfg = &sc
	case core.ReqC:
		sc := harness.DesiredStaircase()
		cfg.ReqShaperCfg = &sc
	case core.RespC, core.BDC:
		err = deriveShapers(&cfg, names, cycles/4)
	}
	return spec{cfg, names, schemeName, fmt.Sprintf("scheme=%v", scheme), cycles}, err
}

// build assembles sp's system under the fault, watchdog, deadline, obs
// and heartbeat flags. Each call builds sources, injector and system
// afresh, so a failed checkpoint restore can fall back to a clean start.
// The protocol checker validates against sp's unperturbed timing.
func (sp spec) build(opts runOpts) (*core.System, *fault.Injector, error) {
	sources, err := scenario.Sources(sp.names, sp.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := sp.cfg
	var inj *fault.Injector
	if opts.faults.Enabled() {
		inj = fault.NewInjector(opts.faults, sim.NewRNG(cfg.Seed+99))
		cfg.Timing = inj.PerturbTiming(cfg.Timing)
		for i := range sources {
			sources[i] = inj.Corrupt(sources[i])
		}
	}
	ctx := obs.WithLabel(obs.NewContext(context.Background(), opts.obs), sp.label)
	if opts.hb != nil {
		// In a re-exec'd worker, the supervision grid feeds the
		// heartbeat pipe.
		ctx = core.WithHeartbeatFunc(ctx, opts.hb.Beat)
	}
	sys, _, err := harness.Run{Config: cfg, Sources: sources}.Build(ctx)
	if err != nil {
		return nil, nil, err
	}
	if inj != nil {
		sys.InjectFaults(inj)
	}
	if opts.watchdog {
		sys.EnableChecks(check.Options{ReferenceTiming: &sp.cfg.Timing})
	}
	if opts.deadline > 0 {
		sys.SetDeadline(opts.deadline)
	}
	return sys, inj, nil
}

// attachLatency installs per-core latency probes and returns them both
// as summaries (for the report) and as staters (so they ride in
// checkpoints and a resumed run's percentiles are byte-identical).
func attachLatency(sys *core.System) ([]*stats.Summary, []ckpt.Stater) {
	latencies := make([]*stats.Summary, len(sys.Cores))
	extras := make([]ckpt.Stater, len(sys.Cores))
	for i := range latencies {
		s := &stats.Summary{}
		latencies[i] = s
		extras[i] = s
		sys.Cores[i].OnResponse = func(_ sim.Cycle, resp *mem.Request) {
			s.Add(float64(resp.Latency()))
		}
	}
	return latencies, extras
}

// loadResume reads the checkpoint to resume from: a file loads directly,
// a directory yields its newest valid checkpoint. All reads go through
// fsys so the chaos layer covers the resume path too.
func loadResume(fsys iofault.FS, from string) (ckpt.Header, []byte, string, error) {
	if fi, err := os.Stat(from); err == nil && fi.IsDir() {
		return ckpt.NewManager(from, 1).SetFS(fsys).Latest()
	}
	h, payload, err := ckpt.ReadFileFS(fsys, from)
	return h, payload, from, err
}

// reportRun builds the system, applies the resume/checkpoint flags,
// attaches latency probes, runs under supervision (SIGINT/SIGTERM cancel
// the run, leaving a final checkpoint when -checkpoint-dir is armed) and
// prints the per-core and system report. A supervised-run failure is
// reported after whatever statistics accumulated. -cycles is the total
// simulated length: a resumed run covers only the remainder.
func reportRun(sp spec, opts runOpts) error {
	cycles := sp.cycles
	sys, inj, err := sp.build(opts)
	if err != nil {
		return err
	}
	latencies, extras := attachLatency(sys)

	// The chaos layer, when armed, covers every checkpoint and resume
	// file operation. (Assigning the injector only when non-nil keeps a
	// typed-nil *Injector out of the FS interface.)
	var fsys iofault.FS = iofault.OS
	if opts.ioInj != nil {
		fsys = opts.ioInj
	}
	remaining := cycles
	if opts.resumeFrom != "" {
		h, payload, path, lerr := loadResume(fsys, opts.resumeFrom)
		switch {
		case lerr == nil:
			if rerr := sys.RestoreState(h, payload, extras...); rerr != nil {
				if !errors.Is(rerr, ckpt.ErrCorrupt) {
					return rerr
				}
				// The half-restored system is tainted; rebuild clean.
				fmt.Fprintf(os.Stderr, "camsim: checkpoint %s unusable (%v); starting clean\n", path, rerr)
				if sys, inj, err = sp.build(opts); err != nil {
					return err
				}
				latencies, extras = attachLatency(sys)
			} else {
				fmt.Fprintf(os.Stderr, "camsim: resumed from %s at cycle %d\n", path, h.Cycle)
				if at := sim.Cycle(h.Cycle); at < cycles {
					remaining = cycles - at
				} else {
					remaining = 0
				}
			}
		case errors.Is(lerr, ckpt.ErrNoCheckpoint), errors.Is(lerr, ckpt.ErrCorrupt), os.IsNotExist(lerr):
			fmt.Fprintf(os.Stderr, "camsim: no usable checkpoint at %s (%v); starting clean\n", opts.resumeFrom, lerr)
		default:
			return lerr
		}
	}
	if opts.ckptDir != "" {
		every := opts.ckptEvery
		if every <= 0 {
			every = core.SuperviseStride
		}
		sys.SetCheckpointPolicy(core.CheckpointPolicy{Dir: opts.ckptDir, Every: every, Keep: 2, Extras: extras, FS: fsys})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	runErr := sys.RunContext(ctx, remaining)
	stop()

	fmt.Printf("%s cycles=%d\n\n", sp.header, cycles)
	fmt.Printf("%-6s %-10s %8s %10s %10s %10s %10s %8s %8s %8s\n",
		"core", "workload", "IPC", "refs", "responses", "memstall", "shapstall", "p50", "p95", "p99")
	for i, c := range sys.Cores {
		st := c.Stats()
		lat := latencies[i]
		fmt.Printf("%-6d %-10s %8.3f %10d %10d %10d %10d %8.0f %8.0f %8.0f\n",
			i, sp.names[i], st.IPC(), st.Refs, st.Responses, st.MemStallCycles, st.ShaperStallCycles,
			lat.Percentile(50), lat.Percentile(95), lat.Percentile(99))
	}
	cs := sys.Channel.Stats()
	mc := sys.MC.Stats()
	fmt.Printf("\nsystem IPC %.3f | DRAM reads %d writes %d row-hit %.2f refreshes %d | MC issued %d mean-occupancy %.2f\n",
		sys.SystemIPC(), cs.Reads, cs.Writes, cs.HitRate(), cs.Refreshes, mc.Issued, mc.MeanOccupancy())
	for i, sh := range sys.ReqShapers {
		if sh != nil {
			st := sh.Stats()
			fmt.Printf("reqc[%d]: real %d fake %d delayed-cycles %d\n", i, st.ReleasedReal, st.ReleasedFake, st.DelayedCycles)
		}
	}
	for i, sh := range sys.RespShapers {
		if sh != nil {
			st := sh.Stats()
			fmt.Printf("respc[%d]: real %d fake %d warnings %d\n", i, st.ReleasedReal, st.ReleasedFake, st.WarningsSent)
		}
	}
	if inj != nil {
		fs := inj.Stats()
		fmt.Printf("faults [%s]: dropped %d delayed %d duplicated %d corrupted %d\n",
			inj.Options(), fs.Dropped, fs.Delayed, fs.Duplicated, fs.Corrupted)
	}
	if sys.Monitor != nil && !sys.Monitor.Violated() {
		fmt.Println("invariants: all checks passed")
	}
	return runErr
}

// deriveShapers measures each core's unshaped distributions and installs
// matching shaper configurations: request shapers on every core but core 0
// and a response shaper on core 0 (the protected/adversary split used
// throughout the paper's evaluation).
func deriveShapers(cfg *core.Config, names []string, measureCycles sim.Cycle) error {
	sources, err := scenario.Sources(names, cfg.Seed)
	if err != nil {
		return err
	}
	probe := *cfg
	probe.Scheme = core.NoShaping
	res, err := harness.Run{Config: probe, Sources: sources, ReqHists: true, RespHist: true, Cycles: measureCycles}.Do(context.Background())
	if err != nil {
		return fmt.Errorf("shaper measurement: %w", err)
	}
	window := 4 * shaper.DefaultWindow
	cfg.PerCoreRespCfg = map[int]shaper.Config{0: shaper.FromHistogram(res.RespHist, window, 0, true)}
	cfg.RespShaperCores = []int{0}
	if cfg.Scheme == core.BDC {
		cfg.PerCoreReqCfg = map[int]shaper.Config{}
		var reqCores []int
		for i := 1; i < len(names); i++ {
			cfg.PerCoreReqCfg[i] = shaper.FromHistogram(res.ReqHists[i], window, 0, true)
			reqCores = append(reqCores, i)
		}
		cfg.ReqShaperCores = reqCores
	}
	return nil
}
