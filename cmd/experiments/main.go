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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"camouflage/internal/campaign"
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
	obsCLI := obs.RegisterFlags(flag.CommandLine)
	progressEvery := flag.Duration("progress", 0, "print a one-line campaign progress report to stderr at this interval (0 = off)")
	isolation := flag.String("isolation", "inproc", "job execution mode: inproc (jobs run in this process) or process (each attempt runs in a re-exec'd worker supervised for liveness)")
	memLimit := flag.String("mem-limit", "", "with -isolation=process: kill and retry a worker whose RSS exceeds this (e.g. 2GiB; empty = no ceiling)")
	stallTimeout := flag.Duration("stall-timeout", campaign.DefaultStallTimeout, "with -isolation=process: escalate a worker with no heartbeat for this long (SIGTERM, then SIGKILL)")
	ckptRoot := flag.String("checkpoint-dir", "", "per-job crash-safe checkpoints under this directory; a retried or restarted job resumes mid-simulation")
	flag.Parse()

	c := sim.Cycle(*cycles)
	exps := suite.Build(suite.Params{Cycles: c, Seed: *seed, Adversary: *adversary, UseGA: *useGA})

	if workerMode {
		os.Exit(campaign.ServeWorker(suite.Jobs(exps)))
	}

	selected, err := suite.Select(exps, *run)
	exitOn(err)
	memBytes, err := campaign.ParseBytes(*memLimit)
	exitOn(err)
	var workerCmd []string
	if campaign.Isolation(*isolation) == campaign.IsolationProcess {
		exe, err := os.Executable()
		exitOn(err)
		// Workers re-parse the supervisor's exact arguments so
		// buildExperiments produces the same specs on both sides.
		workerCmd = append([]string{exe, campaign.WorkerFlag}, os.Args[1:]...)
	}

	var journal *campaign.Journal
	if *journalPath != "" {
		journal, err = campaign.OpenJournal(*journalPath)
		exitOn(err)
		if !*resume {
			exitOn(journal.Reset())
		}
	} else if *resume {
		exitOn(errors.New("experiments: -resume requires -journal"))
	}

	// SIGINT/SIGTERM cancel the campaign: the pool stops handing out
	// jobs, in-flight runs notice within one supervision quantum or get
	// -grace to finish, and the journal holds everything completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability: one bundle carried to every experiment through the
	// context. In-process jobs feed it on their supervision grids;
	// process-isolated workers run their own monitors and the supervisor
	// merges their metric deltas and alerts under worker.<jobhash>.
	// prefixes. -progress needs the registry too.
	bundle, err := obsCLI.Start(*seed, *progressEvery > 0)
	exitOn(err)
	var (
		progress *campaign.Progress
		reg      *obs.Registry
		hist     *obs.History
		monitor  *obs.SLOMonitor
	)
	if bundle != nil {
		reg, hist, monitor = bundle.Registry, bundle.History, bundle.Alerts
		progress = campaign.NewProgress(reg)
		ctx = obs.NewContext(ctx, bundle)
	}
	exitOn(obsCLI.Serve(&obs.Server{Jobs: func() any { return progress.JobsSnapshot() }}))
	reporter := obs.StartProgress(os.Stderr, *progressEvery, progress.Line)
	// main exits through os.Exit, which skips defers; every path below
	// funnels through closeObs before exiting.
	closeObs := func() {
		reporter.Stop()
		if err := obsCLI.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
		}
	}

	sum, err := campaign.Run(ctx, suite.Jobs(selected), campaign.Options{
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
		SLO:           obsCLI.SLO,
		Log:           func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
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

// exitOn prints err and exits with status 2, when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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
