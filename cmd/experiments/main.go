// Command experiments regenerates every table and figure of the paper's
// evaluation. Run it with no flags for the full suite, or select
// experiments with -run:
//
//	experiments -run fig11
//	experiments -run fig2,fig3,mi -cycles 800000
//
// Experiments run as a resilient campaign: jobs execute on a bounded
// worker pool (-jobs), transient failures retry with exponential backoff
// (-retries), and with -journal every result lands in a crash-safe JSONL
// journal so an interrupted campaign picks up where it stopped:
//
//	experiments -journal out/campaign.jsonl            # ^C at any point
//	experiments -journal out/campaign.jsonl -resume    # finishes the rest
//
// SIGINT/SIGTERM drain gracefully: no new jobs start, in-flight jobs get
// -grace to finish, the journal is flushed, and a partial summary
// (completed / retried / failed / remaining) is printed.
//
// The per-experiment index (what each id reproduces and with which
// modules) is in DESIGN.md; measured-vs-paper numbers are recorded in
// EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/dispatch"
	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
	"camouflage/internal/suite"
)

func main() {
	// Worker mode: a process-isolated campaign re-execs this binary with
	// the hidden worker flag plus the supervisor's own arguments, so both
	// sides parse identical flags and build identical job lists. The flag
	// is stripped before flag.Parse ever sees it.
	workerMode := len(os.Args) > 1 && os.Args[1] == campaign.WorkerFlag
	if workerMode {
		os.Args = append(os.Args[:1], os.Args[2:]...)
	}

	run := flag.String("run", "all", "comma-separated experiments to run: "+
		strings.Join(suite.Names(suite.Build(suite.Params{})), ", ")+
		", all (headline has no simulation of its own: it is derived from the fig12, fig13a and fig13b jobs, which it runs)")
	cycles := flag.Uint64("cycles", uint64(harness.DefaultRunCycles), "measured cycles per run")
	seed := flag.Uint64("seed", 1, "simulation seed")
	adversary := flag.String("adversary", "gcc", "adversary benchmark for fig9")
	useGA := flag.Bool("ga", false, "refine BDC configurations with the online GA (fig13, slower)")
	csvDir := flag.String("csv", "", "also write each result as CSV into this directory")
	jobs := flag.Int("jobs", runtime.NumCPU(), "concurrent experiment jobs")
	retries := flag.Int("retries", 2, "retries per job after a transient failure")
	journalPath := flag.String("journal", "", "crash-safe JSONL progress journal (enables -resume)")
	resume := flag.Bool("resume", false, "skip jobs already completed in -journal")
	grace := flag.Duration("grace", 30*time.Second, "how long in-flight jobs may finish after SIGINT/SIGTERM")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
	obsAddr := flag.String("obs-addr", "", "serve live introspection (/metrics, /metrics/history, /alerts, /jobs, expvar, pprof) on this address, e.g. localhost:6060")
	traceOut := flag.String("trace-out", "", "write request-lifecycle traces to PATH.json (Chrome trace_event) and PATH.jsonl (span log)")
	traceSample := flag.Uint64("trace-sample", 64, "trace 1 in N requests, chosen deterministically from -seed (1 = all)")
	sloSpec := flag.String("slo", "", "security SLO rules, e.g. 'drift_l1>0.15:3' (comma-separated metric>max[:sustain]); process-isolated workers evaluate them on their own grids and forward alerts")
	alertsOut := flag.String("alerts", "", "with -slo: write alert transitions as JSONL to this file")
	historyOut := flag.String("history-out", "", "write the campaign's metric time-series history as JSON to this file at exit")
	progressEvery := flag.Duration("progress", 0, "print a one-line campaign progress report to stderr at this interval (0 = off)")
	isolation := flag.String("isolation", "inproc", "job execution mode: inproc (jobs run in this process) or process (each attempt runs in a re-exec'd worker supervised for liveness)")
	memLimit := flag.String("mem-limit", "", "with -isolation=process: kill and retry a worker whose RSS exceeds this (e.g. 2GiB; empty = no ceiling)")
	stallTimeout := flag.Duration("stall-timeout", campaign.DefaultStallTimeout, "with -isolation=process: escalate a worker with no heartbeat for this long (SIGTERM, then SIGKILL)")
	ckptRoot := flag.String("checkpoint-dir", "", "per-job crash-safe checkpoints under this directory; a retried or restarted job resumes mid-simulation")
	listen := flag.String("listen", "", "supervise a distributed worker fleet: accept camworker connections on this address (e.g. :9090) and dispatch jobs over TCP; no reachable workers degrades to local execution")
	fleetToken := flag.String("fleet-token", "", "with -listen: shared secret workers must present at handshake")
	leaseTTL := flag.Duration("lease", dispatch.DefaultLeaseTTL, "with -listen: job lease duration; a worker silent past this is fenced off and its job re-dispatched")
	fleetWait := flag.Duration("fleet-wait", 5*time.Second, "with -listen: wait up to this long for the first worker before degrading to local execution")
	flag.Parse()

	c := sim.Cycle(*cycles)
	exps := suite.Build(suite.Params{Cycles: c, Seed: *seed, Adversary: *adversary, UseGA: *useGA})

	if workerMode {
		os.Exit(campaign.ServeWorker(suite.Jobs(exps)))
	}

	selected, err := suite.Select(exps, *run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *listen != "" && campaign.Isolation(*isolation) == campaign.IsolationProcess {
		fmt.Fprintln(os.Stderr, "experiments: -listen and -isolation=process are mutually exclusive (remote workers already isolate)")
		os.Exit(2)
	}

	memBytes, err := campaign.ParseBytes(*memLimit)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var workerCmd []string
	if campaign.Isolation(*isolation) == campaign.IsolationProcess {
		exe, eerr := os.Executable()
		if eerr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", eerr)
			os.Exit(2)
		}
		// Workers re-parse the supervisor's exact arguments so
		// buildExperiments produces the same specs on both sides.
		workerCmd = append([]string{exe, campaign.WorkerFlag}, os.Args[1:]...)
	}

	var journal *campaign.Journal
	if *journalPath != "" {
		journal, err = campaign.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !*resume {
			if err := journal.Reset(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -journal")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the campaign: the pool stops handing out
	// jobs, in-flight runs notice within one supervision quantum or get
	// -grace to finish, and the journal holds everything completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability: one shared metrics registry and (optionally) a
	// lifecycle tracer, carried to every experiment through the context —
	// plus the fleet telemetry plane: a time-series history and an SLO
	// monitor. In-process jobs feed them directly on their supervision
	// grids; process-isolated workers run their own monitors and the
	// supervisor merges their metric deltas and alerts under
	// worker.<jobhash>. prefixes. Everything below is nil-safe, so the
	// zero-flag path pays nothing.
	var (
		reg        *obs.Registry
		hist       *obs.History
		monitor    *obs.SLOMonitor
		alertsFile *os.File
		tracer     *obs.Tracer
		progress   *campaign.Progress
	)
	if *obsAddr != "" || *traceOut != "" || *progressEvery > 0 || *sloSpec != "" || *historyOut != "" {
		reg = obs.NewRegistry()
		progress = campaign.NewProgress(reg)
	}
	if *historyOut != "" || *obsAddr != "" {
		hist = obs.NewHistory(obs.HistoryOpts{})
	}
	if *sloSpec != "" {
		rules, perr := obs.ParseSLOSpec(*sloSpec)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		var sink io.Writer
		if *alertsOut != "" {
			if alertsFile, err = os.Create(*alertsOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			sink = alertsFile
		}
		monitor = obs.NewSLOMonitor(rules, reg, sink)
	}
	if *traceOut != "" {
		if tracer, err = obs.NewTracer(*traceOut, *traceSample, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if reg != nil {
		ctx = obs.NewContext(ctx, &obs.Bundle{Registry: reg, Tracer: tracer, History: hist, Alerts: monitor})
	}
	srv := &obs.Server{Registry: reg, History: hist, Alerts: monitor,
		Jobs: func() any { return progress.JobsSnapshot() }}
	if *obsAddr != "" {
		addr, aerr := srv.Serve(*obsAddr)
		if aerr != nil {
			fmt.Fprintln(os.Stderr, aerr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /metrics/history /alerts /jobs /debug/vars /debug/pprof on http://%s\n", addr)
	}
	reporter := obs.StartProgress(os.Stderr, *progressEvery, progress.Line)
	// main exits through os.Exit, which skips defers; every path below
	// funnels through closeObs before exiting.
	closeObs := func() {
		reporter.Stop()
		// Graceful teardown: in-flight scrapes get a bounded grace
		// period, then the server hard-closes.
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		srv.Shutdown(sctx)
		scancel()
		if cerr := tracer.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "obs:", cerr)
		}
		if *historyOut != "" {
			if herr := writeHistory(*historyOut, hist); herr != nil {
				fmt.Fprintln(os.Stderr, "obs:", herr)
			}
		}
		if alertsFile != nil {
			if serr := monitor.SinkErr(); serr != nil {
				fmt.Fprintln(os.Stderr, "obs: alert log:", serr)
			}
			if cerr := alertsFile.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "obs:", cerr)
			}
		}
	}

	all := suite.Jobs(selected)
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	opt := campaign.Options{
		Workers:       *jobs,
		Retries:       *retries,
		JobTimeout:    *jobTimeout,
		Grace:         *grace,
		Journal:       journal,
		Resume:        *resume,
		Seed:          *seed,
		Progress:      progress,
		Isolation:     campaign.Isolation(*isolation),
		WorkerCommand: workerCmd,
		MemLimit:      memBytes,
		StallTimeout:  *stallTimeout,
		CheckpointDir: *ckptRoot,
		Registry:      reg,
		History:       hist,
		Alerts:        monitor,
		SLO:           *sloSpec,
		Log:           logf,
	}
	var sup *dispatch.Supervisor
	if *listen != "" {
		// Distributed dispatch: jobs go to the TCP fleet; with no
		// reachable workers the supervisor degrades to this local
		// executor. The fleet hash covers the FULL suite (not just the
		// -run selection) so any worker built with the same parameters
		// can join regardless of which subset this run emits.
		fallback, ferr := campaign.NewLocalExecutor(opt, logf)
		if ferr != nil {
			closeObs()
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(2)
		}
		sup = dispatch.NewSupervisor(dispatch.SupervisorConfig{
			Token:     *fleetToken,
			Jobs:      suite.Jobs(exps),
			LeaseTTL:  *leaseTTL,
			FleetWait: *fleetWait,
			Fallback:  fallback,
			Journal:   journal,
			Registry:  reg,
			History:   hist,
			Alerts:    monitor,
			SLO:       *sloSpec,
			Log:       logf,
		})
		addr, serr := sup.Start(*listen)
		if serr != nil {
			closeObs()
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(2)
		}
		// Scripts parse this exact line for the bound (possibly
		// ephemeral) port.
		fmt.Fprintf(os.Stderr, "dispatch: listening on %s\n", addr)
		opt.Dispatcher = sup
	}
	sum, err := campaign.Run(ctx, all, opt)
	if sup != nil {
		// Drain the fleet inside the SIGINT grace window: stop accepting,
		// send drain frames, wait for worker conns to settle.
		sup.Close()
	}
	if err != nil {
		closeObs()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failed := emit(selected, sum, *csvDir)
	closeObs()
	if sum.Interrupted || journal != nil || sum.Resumed > 0 || sum.Retried > 0 || sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %s\n", sum)
	}
	switch {
	case sum.Interrupted && sum.Remaining > 0:
		os.Exit(130)
	case failed:
		os.Exit(1)
	}
}

// writeHistory dumps the full time-series store (no prefix filter, raw
// series) to path. DumpJSON is nil-safe, so a history-less run still
// writes the valid empty document.
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

// emit prints every selected experiment's table in canonical order
// (assembled from its jobs' tables by Experiment.Table) and writes CSVs.
// It reports whether any experiment failed.
func emit(selected []suite.Experiment, sum *campaign.Summary, csvDir string) bool {
	byHash := make(map[string]*campaign.Result, len(sum.Results))
	for _, res := range sum.Results {
		byHash[res.Hash] = res
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", csvDir, err)
			return true
		}
	}
	failed := false
	for _, e := range selected {
		var tables []*harness.Table
		var errs []string
		complete := true
		for _, job := range e.Jobs {
			res := byHash[job.Hash()]
			switch res.Status {
			case campaign.Done, campaign.Resumed:
				tables = append(tables, res.Table)
			case campaign.Failed:
				if res.Table != nil {
					// A measured result that failed its expectation: show
					// the table, then the verdict.
					tables = append(tables, res.Table)
				}
				errs = append(errs, fmt.Sprintf("%s: %v", e.Name, res.Err))
				failed = true
			default: // canceled / skipped: the resume picks it up
				complete = false
			}
		}
		if len(tables) == len(e.Jobs) && complete {
			table, err := e.Table(tables)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", e.Name, err))
				failed = true
			} else {
				fmt.Println(strings.TrimRight(table.String(), "\n") + "\n")
				if csvDir != "" {
					path := filepath.Join(csvDir, e.Name+".csv")
					if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
						fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
						failed = true
					}
				}
			}
		}
		for _, line := range errs {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	return failed
}
