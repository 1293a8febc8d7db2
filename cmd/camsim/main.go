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
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/check"
	"camouflage/internal/ckpt"
	"camouflage/internal/core"
	"camouflage/internal/dram"
	"camouflage/internal/fault"
	"camouflage/internal/harness"
	"camouflage/internal/iofault"
	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/scenario"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
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

// fs returns the filesystem checkpoint/resume I/O should use: the
// injector when armed, the real filesystem otherwise. (Returning the
// injector only when non-nil keeps a typed-nil *Injector out of the FS
// interface.)
func (o runOpts) fs() iofault.FS {
	if o.ioInj == nil {
		return iofault.OS
	}
	return o.ioInj
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
	obsAddr := flag.String("obs-addr", "", "serve live introspection (/metrics, expvar, pprof) on this address, e.g. localhost:6060")
	traceOut := flag.String("trace-out", "", "write request-lifecycle traces to PATH.json (Chrome trace_event) and PATH.jsonl (span log)")
	traceSample := flag.Uint64("trace-sample", 64, "trace 1 in N requests, chosen deterministically from -seed (1 = all)")
	sloSpec := flag.String("slo", "", "security SLO rules evaluated on the supervision grid, e.g. 'drift_l1>0.15:3' (comma-separated metric>max[:sustain])")
	alertsOut := flag.String("alerts", "", "with -slo: write alert transitions as JSONL to this file (same-seed runs are byte-identical)")
	historyOut := flag.String("history-out", "", "write the metric time-series history as JSON to this file at run end")
	ckptDir := flag.String("checkpoint-dir", "", "write periodic crash-safe checkpoints into this directory (keeps the newest 2)")
	ckptEvery := flag.Uint64("checkpoint-every", 100_000, "simulated cycles between automatic checkpoints (with -checkpoint-dir)")
	resumeFrom := flag.String("resume-from", "", "resume from this checkpoint file, or the newest valid checkpoint in this directory; -cycles is the total, so the run covers only the remainder")
	ioFaultsSpec := flag.String("io-faults", "", "inject infrastructure faults into checkpoint/resume file I/O and the obs listener: write=P,torn=P,sync=P,rename=P,read=P,corrupt=P,slow=P[:dur],accept=P,connwrite=P,seed=N (empty = none)")
	isolation := flag.String("isolation", "inproc", "run execution mode: inproc, or process (re-exec the run in a supervised worker restarted on crash/stall/RSS breach, resuming from -checkpoint-dir)")
	memLimit := flag.String("mem-limit", "", "with -isolation=process: kill and restart a worker whose RSS exceeds this (e.g. 2GiB; empty = no ceiling)")
	stallTimeout := flag.Duration("stall-timeout", campaign.DefaultStallTimeout, "with -isolation=process: escalate a worker with no heartbeat for this long (SIGTERM, then SIGKILL)")
	flag.Parse()

	memBytes, merr := campaign.ParseBytes(*memLimit)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "camsim:", merr)
		os.Exit(1)
	}
	switch campaign.Isolation(*isolation) {
	case campaign.IsolationProcess:
		os.Exit(superviseSelf(*stallTimeout, memBytes, *ckptDir, *resumeFrom))
	case campaign.IsolationInProc, "":
	default:
		fmt.Fprintf(os.Stderr, "camsim: unknown -isolation mode %q (inproc or process)\n", *isolation)
		os.Exit(1)
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
		iopt, perr := iofault.ParseSpec(*ioFaultsSpec)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "camsim:", perr)
			os.Exit(1)
		}
		opts.ioInj = iofault.NewInjector(iopt)
	}

	// Observability: registry + optional tracer on the measured system
	// (probe/measurement pre-runs stay uninstrumented), plus the fleet
	// telemetry plane — time-series history and SLO alerts. All handles
	// are nil-safe; camsim exits through os.Exit, so teardown is
	// explicit. Under -isolation=process the re-exec'd child
	// carries these same flags, so alert logs and history dumps come from
	// the measuring process either way and same-seed runs stay
	// byte-identical across isolation modes.
	var (
		tracer     *obs.Tracer
		srv        *obs.Server
		monitor    *obs.SLOMonitor
		alertsFile *os.File
		err        error
	)
	if *obsAddr != "" || *traceOut != "" || *sloSpec != "" || *historyOut != "" {
		reg := obs.NewRegistry()
		if *traceOut != "" {
			if tracer, err = obs.NewTracer(*traceOut, *traceSample, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "camsim:", err)
				os.Exit(1)
			}
		}
		var hist *obs.History
		if *historyOut != "" || *obsAddr != "" {
			hist = obs.NewHistory(obs.HistoryOpts{})
		}
		if *sloSpec != "" {
			rules, perr := obs.ParseSLOSpec(*sloSpec)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "camsim:", perr)
				os.Exit(1)
			}
			var sink io.Writer
			if *alertsOut != "" {
				if alertsFile, err = os.Create(*alertsOut); err != nil {
					fmt.Fprintln(os.Stderr, "camsim:", err)
					os.Exit(1)
				}
				sink = alertsFile
			}
			monitor = obs.NewSLOMonitor(rules, reg, sink)
		}
		opts.obs = &obs.Bundle{Registry: reg, Tracer: tracer, History: hist, Alerts: monitor}
		if *obsAddr != "" {
			srv = &obs.Server{Registry: reg, History: hist, Alerts: monitor, Faults: opts.ioInj}
			addr, aerr := srv.Serve(*obsAddr)
			if aerr != nil {
				fmt.Fprintln(os.Stderr, "camsim:", aerr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "obs: serving /metrics /metrics/history /alerts /debug/vars /debug/pprof on http://%s\n", addr)
		}
	}

	if opts.faults, err = fault.ParseSpec(*faultsSpec); err == nil {
		if *scenarioPath != "" {
			err = runScenario(*scenarioPath, sim.Cycle(*cycles), opts)
		} else {
			err = run(*workload, *schemeName, sim.Cycle(*cycles), *seed, opts)
		}
	}
	// Graceful teardown: in-flight scrapes get a bounded grace period,
	// then the server hard-closes.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	srv.Shutdown(sctx)
	scancel()
	if cerr := tracer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if *historyOut != "" && opts.obs != nil {
		if derr := writeHistory(*historyOut, opts.obs.History); derr != nil && err == nil {
			err = derr
		}
	}
	if alertsFile != nil {
		if serr := monitor.SinkErr(); serr != nil && err == nil {
			err = fmt.Errorf("alert log: %w", serr)
		}
		if cerr := alertsFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if opts.ioInj != nil {
		// Stats go to stderr so chaos runs keep stdout byte-comparable to
		// clean runs.
		fmt.Fprintf(os.Stderr, "iofaults [%s]: %s\n", opts.ioInj.Options(), opts.ioInj.Stats())
	}
	if opts.hb != nil {
		opts.hb.Emit(campaign.FrameDone)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "camsim:", err)
		os.Exit(1)
	}
}

// writeHistory dumps the full time-series store (no prefix filter, raw
// series) to path. DumpJSON is nil-safe, so a run that never armed the
// store still writes the valid empty document.
func writeHistory(path string, hist *obs.History) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = hist.DumpJSON(f, "", ""); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runScenario loads, builds and reports a declarative scenario. The
// scenario's own cycle count wins over the flag when set. Link-level
// faults, the watchdog and the deadline apply; trace corruption and
// timing perturbation need construction-time hooks and are only
// available on the -workload path.
func runScenario(path string, cycles sim.Cycle, opts runOpts) error {
	s, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	if s.Cycles > 0 {
		cycles = sim.Cycle(s.Cycles)
	}
	names := make([]string, len(s.Cores))
	for i, c := range s.Cores {
		names[i] = c.Workload
	}
	// Assembly is a closure so a failed checkpoint restore can fall back
	// to a clean, freshly built system.
	build := func() (*core.System, *fault.Injector, error) {
		sys, err := s.Build()
		if err != nil {
			return nil, nil, err
		}
		var inj *fault.Injector
		if opts.faults.NoCEnabled() {
			inj = fault.NewInjector(opts.faults, sim.NewRNG(s.Seed+99))
			sys.InjectFaults(inj)
		}
		sys.EnableObs(opts.obs, "scenario/"+s.Name)
		supervise(sys, nil, opts)
		return sys, inj, nil
	}
	return reportRun(build, names, cycles, fmt.Sprintf("scenario=%s scheme=%s", s.Name, s.Scheme), opts)
}

func run(workload, schemeName string, cycles sim.Cycle, seed uint64, opts runOpts) error {
	names := strings.Split(workload, ",")
	scheme, err := scenario.ParseScheme(schemeName)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Cores = len(names)
	cfg.Seed = seed
	cfg.Scheme = scheme

	// Shaping schemes need configurations; derive them from a short
	// unshaped measurement run so the shaped distributions match each
	// core's own traffic.
	switch scheme {
	case core.CS:
		sc := shaper.ConstantRate(stats.DefaultBinning(), harness.BandwidthInterval(1e9), 4*shaper.DefaultWindow, true)
		cfg.ReqShaperCfg = &sc
	case core.ReqC:
		sc := harness.DesiredStaircase()
		cfg.ReqShaperCfg = &sc
	case core.RespC, core.BDC:
		if err := deriveShapers(&cfg, names, seed, cycles/4); err != nil {
			return err
		}
	}

	// Assembly is a closure (sources, fault injector and system are all
	// rebuilt together) so a failed checkpoint restore can fall back to a
	// clean start. The reference timing is captured before the fault
	// perturbation so the protocol checker validates against the truth.
	ref := cfg.Timing
	build := func() (*core.System, *fault.Injector, error) {
		sources, err := buildSources(names, seed)
		if err != nil {
			return nil, nil, err
		}
		runCfg := cfg
		var inj *fault.Injector
		if opts.faults.Enabled() {
			inj = fault.NewInjector(opts.faults, sim.NewRNG(seed+99))
			runCfg.Timing = inj.PerturbTiming(runCfg.Timing)
			for i := range sources {
				sources[i] = inj.Corrupt(sources[i])
			}
		}
		sys, err := core.NewSystem(runCfg, sources)
		if err != nil {
			return nil, nil, err
		}
		if inj != nil {
			sys.InjectFaults(inj)
		}
		sys.EnableObs(opts.obs, schemeName)
		supervise(sys, &ref, opts)
		return sys, inj, nil
	}
	return reportRun(build, names, cycles, fmt.Sprintf("scheme=%v", scheme), opts)
}

// supervise applies the -watchdog and -deadline flags to a built system
// and, in a re-exec'd worker, hooks the simulation's supervision grid
// into the heartbeat pipe.
func supervise(sys *core.System, ref *dram.Timing, opts runOpts) {
	if opts.watchdog {
		sys.EnableChecks(check.Options{ReferenceTiming: ref})
	}
	if opts.deadline > 0 {
		sys.SetDeadline(opts.deadline)
	}
	if opts.hb != nil {
		sys.SetHeartbeat(opts.hb.Beat)
	}
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
func reportRun(build func() (*core.System, *fault.Injector, error), names []string, cycles sim.Cycle, header string, opts runOpts) error {
	sys, inj, err := build()
	if err != nil {
		return err
	}
	latencies, extras := attachLatency(sys)

	remaining := cycles
	if opts.resumeFrom != "" {
		h, payload, path, lerr := loadResume(opts.fs(), opts.resumeFrom)
		switch {
		case lerr == nil:
			if rerr := sys.RestoreState(h, payload, extras...); rerr != nil {
				if !errors.Is(rerr, ckpt.ErrCorrupt) {
					return rerr
				}
				// The half-restored system is tainted; rebuild clean.
				fmt.Fprintf(os.Stderr, "camsim: checkpoint %s unusable (%v); starting clean\n", path, rerr)
				if sys, inj, err = build(); err != nil {
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
		pol := core.CheckpointPolicy{Dir: opts.ckptDir, Every: every, Keep: 2, Extras: extras}
		if opts.ioInj != nil {
			pol.FS = opts.ioInj
		}
		sys.SetCheckpointPolicy(pol)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	runErr := sys.RunContext(ctx, remaining)
	stop()

	fmt.Printf("%s cycles=%d\n\n", header, cycles)
	fmt.Printf("%-6s %-10s %8s %10s %10s %10s %10s %8s %8s %8s\n",
		"core", "workload", "IPC", "refs", "responses", "memstall", "shapstall", "p50", "p95", "p99")
	for i, c := range sys.Cores {
		st := c.Stats()
		lat := latencies[i]
		fmt.Printf("%-6d %-10s %8.3f %10d %10d %10d %10d %8.0f %8.0f %8.0f\n",
			i, names[i], st.IPC(), st.Refs, st.Responses, st.MemStallCycles, st.ShaperStallCycles,
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

// buildSources resolves each workload name to either a benchmark profile
// generator or, when the name is a readable recorded-trace file (as
// produced by tracecap), a looping replay of that trace.
func buildSources(names []string, seed uint64) ([]trace.Source, error) {
	rng := sim.NewRNG(seed + 17)
	sources := make([]trace.Source, len(names))
	for i, raw := range names {
		n := strings.TrimSpace(raw)
		if f, err := os.Open(n); err == nil {
			entries, rerr := trace.ReadTrace(f)
			f.Close()
			if rerr != nil {
				return nil, fmt.Errorf("%s: %w", n, rerr)
			}
			sources[i] = trace.NewLoopSource(entries)
			continue
		}
		p, err := trace.ProfileByName(n)
		if err != nil {
			return nil, err
		}
		if sources[i], err = trace.NewGenerator(p, rng.Fork()); err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// deriveShapers measures each core's unshaped distributions and installs
// matching shaper configurations: request shapers on every core but core 0
// and a response shaper on core 0 (the protected/adversary split used
// throughout the paper's evaluation).
func deriveShapers(cfg *core.Config, names []string, seed uint64, measureCycles sim.Cycle) error {
	probe := *cfg
	probe.Scheme = core.NoShaping
	sources, err := buildSources(names, seed)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(probe, sources)
	if err != nil {
		return err
	}
	reqRecs := make([]*stats.InterArrivalRecorder, len(names))
	for i := range reqRecs {
		reqRecs[i] = stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
	}
	respRec := stats.NewInterArrivalRecorder(stats.DefaultBinning(), false)
	sys.ReqNet.AddTap(func(now sim.Cycle, req *mem.Request) { reqRecs[req.Core].Observe(now) })
	sys.RespNet.AddTap(func(now sim.Cycle, req *mem.Request) {
		if req.Core == 0 {
			respRec.Observe(now)
		}
	})
	sys.Run(measureCycles)

	window := 4 * shaper.DefaultWindow
	cfg.PerCoreRespCfg = map[int]shaper.Config{0: shaper.FromHistogram(respRec.Hist, window, 0, true)}
	cfg.RespShaperCores = []int{0}
	if cfg.Scheme == core.BDC {
		cfg.PerCoreReqCfg = map[int]shaper.Config{}
		var reqCores []int
		for i := 1; i < len(names); i++ {
			cfg.PerCoreReqCfg[i] = shaper.FromHistogram(reqRecs[i].Hist, window, 0, true)
			reqCores = append(reqCores, i)
		}
		cfg.ReqShaperCores = reqCores
	}
	return nil
}
