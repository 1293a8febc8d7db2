// Command chaossoak is the kill-and-corrupt soak harness for the
// infrastructure chaos layer. Each iteration it:
//
//  1. runs a checkpointing camsim subprocess under injected disk faults,
//     SIGKILLs it mid-run (never a graceful signal), corrupts checkpoint
//     files at rest, resumes, and byte-compares the final report against
//     a clean reference run;
//  2. runs the in-process degradation suite: a simulation whose
//     checkpoint disk always fails (state must stay byte-identical to an
//     undisturbed run), a campaign whose journal flushes fail and heal
//     (must drain cleanly), and an obs server whose accept loop dies
//     (must degrade to disabled);
//  3. runs a small campaign under process isolation whose worker
//     SIGKILLs itself mid-job: the supervisor must restart it, the retry
//     must resume from its checkpoint, and every table must be
//     byte-identical to an undisturbed in-process campaign;
//  4. checks for goroutine leaks and unbounded heap growth.
//
// Every fault schedule is seeded from -seed and the iteration number, so
// a failure replays exactly. The short profile (the default) is the CI
// gate; -full widens the fault set and kill count for longer soaks.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/ckpt"
	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/iofault"
	"camouflage/internal/obs"
	"camouflage/internal/scenario"
)

func main() {
	// The process-isolation soak re-execs this binary as a campaign
	// worker; serve that before flag parsing.
	if len(os.Args) > 1 && os.Args[1] == campaign.WorkerFlag {
		os.Exit(campaign.ServeWorker(soakWorkerJobs()))
	}

	camsim := flag.String("camsim", "", "path to a prebuilt camsim binary (required)")
	iters := flag.Int("iters", 20, "soak iterations")
	cycles := flag.Uint64("cycles", 2_000_000, "simulated cycles per subprocess run")
	every := flag.Uint64("every", 65_536, "checkpoint spacing for the victim runs")
	scheme := flag.String("scheme", "bdc", "camsim scheme for the subprocess runs")
	seed := flag.Uint64("seed", 1, "master seed; every per-iteration fault schedule derives from it")
	full := flag.Bool("full", false, "full randomized profile: more kill rounds per iteration and read/corrupt faults on the resume path")
	flag.Parse()
	if *camsim == "" {
		fmt.Fprintln(os.Stderr, "chaossoak: -camsim is required")
		os.Exit(2)
	}

	s := &soak{
		camsim: *camsim,
		cycles: *cycles,
		every:  *every,
		scheme: *scheme,
		seed:   *seed,
		full:   *full,
		rng:    rand.New(rand.NewSource(int64(*seed))),
	}
	if err := s.run(*iters); err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak: FAIL:", err)
		os.Exit(1)
	}
	fmt.Printf("chaossoak: PASS (%d iterations, scheme %s, %d cycles, seed %d, full=%v)\n",
		*iters, *scheme, *cycles, *seed, *full)
}

type soak struct {
	camsim string
	cycles uint64
	every  uint64
	scheme string
	seed   uint64
	full   bool
	rng    *rand.Rand

	reference []byte // clean camsim stdout, the byte-compare oracle
	refState  []byte // clean in-process system state, same oracle in-process
	baseline  int    // goroutine count before the first iteration
	firstHeap uint64 // post-GC HeapAlloc after iteration 1
}

func (s *soak) run(iters int) error {
	runtime.GC()
	s.baseline = runtime.NumGoroutine()

	out, _, err := s.runCamsim(nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	s.reference = out
	if s.refState, err = cleanSystemState(); err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}

	for it := 1; it <= iters; it++ {
		iterSeed := s.seed*1_000_003 + uint64(it)
		start := time.Now()
		if err := s.killAndCorrupt(it, iterSeed); err != nil {
			return fmt.Errorf("iteration %d (seed %d): subprocess soak: %w", it, iterSeed, err)
		}
		if err := s.degradationSuite(iterSeed); err != nil {
			return fmt.Errorf("iteration %d (seed %d): in-process suite: %w", it, iterSeed, err)
		}
		if err := s.processIsolation(iterSeed); err != nil {
			return fmt.Errorf("iteration %d (seed %d): process isolation: %w", it, iterSeed, err)
		}
		if err := s.leakChecks(it); err != nil {
			return fmt.Errorf("iteration %d (seed %d): %w", it, iterSeed, err)
		}
		fmt.Printf("chaossoak: iteration %d/%d ok (%.1fs)\n", it, iters, time.Since(start).Seconds())
	}
	return nil
}

// runCamsim runs one camsim subprocess with the base workload flags plus
// extra, returning stdout and stderr.
func (s *soak) runCamsim(extra []string) (stdout, stderr []byte, err error) {
	args := []string{"-scheme", s.scheme, "-cycles", fmt.Sprint(s.cycles), "-seed", fmt.Sprint(s.seed)}
	args = append(args, extra...)
	cmd := exec.Command(s.camsim, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.Bytes(), errb.Bytes(), err
}

// killAndCorrupt is one subprocess soak round: SIGKILL a checkpointing
// run mid-flight (one or more times), corrupt checkpoint files at rest
// between rounds, then let a final resume complete and byte-compare its
// report against the clean reference.
func (s *soak) killAndCorrupt(it int, iterSeed uint64) error {
	dir, err := os.MkdirTemp("", "chaossoak")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ck := filepath.Join(dir, "ckpts")

	// Moderate write-side fault probabilities: saves must fail sometimes
	// (exercising degradation + backoff) and succeed sometimes (so resume
	// points exist). The full profile also faults the resume's read path,
	// exercising quarantine-and-fall-back.
	faults := fmt.Sprintf("rename=0.2,sync=0.2,torn=0.1,write=0.1,seed=%d", iterSeed)
	if s.full {
		faults = fmt.Sprintf("rename=0.2,sync=0.2,torn=0.1,write=0.1,read=0.05,corrupt=0.05,seed=%d", iterSeed)
	}
	base := []string{"-checkpoint-dir", ck, "-checkpoint-every", fmt.Sprint(s.every), "-io-faults", faults}

	kills := 1
	if s.full {
		kills += s.rng.Intn(3)
	}
	resuming := false
	for round := 0; round < kills; round++ {
		extra := base
		if resuming {
			extra = append(append([]string{}, base...), "-resume-from", ck)
		}
		finished, err := s.killOne(extra, ck)
		if err != nil {
			return fmt.Errorf("kill round %d: %w", round, err)
		}
		resuming = true
		if finished != nil {
			// The victim outran the killer; its report must already match.
			if !bytes.Equal(finished, s.reference) {
				return fmt.Errorf("kill round %d: early-finished report differs from reference", round)
			}
			return nil
		}
		s.corruptOne(ck)
	}

	// Final round: resume and run to completion.
	out, errb, err := s.runCamsim(append(append([]string{}, base...), "-resume-from", ck))
	if err != nil {
		return fmt.Errorf("final resume: %w\nstderr:\n%s", err, errb)
	}
	se := string(errb)
	if !strings.Contains(se, "resumed from") && !strings.Contains(se, "starting clean") {
		return fmt.Errorf("final resume reported neither a resume nor a clean start:\n%s", se)
	}
	if !bytes.Equal(out, s.reference) {
		return fmt.Errorf("resumed report differs from clean reference (%d vs %d bytes)", len(out), len(s.reference))
	}
	return nil
}

// killOne starts a victim run and SIGKILLs it once a checkpoint file
// exists (plus a random dither). If the run finishes first, its stdout
// is returned instead.
func (s *soak) killOne(extra []string, ck string) ([]byte, error) {
	args := []string{"-scheme", s.scheme, "-cycles", fmt.Sprint(s.cycles), "-seed", fmt.Sprint(s.seed)}
	args = append(args, extra...)
	cmd := exec.Command(s.camsim, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.After(60 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				return nil, fmt.Errorf("victim exited early: %w", err)
			}
			return out.Bytes(), nil
		case <-deadline:
			cmd.Process.Kill()
			<-done
			return nil, fmt.Errorf("victim wrote no checkpoint within 60s")
		default:
		}
		if files, _ := filepath.Glob(filepath.Join(ck, "*.camckpt")); len(files) > 0 {
			// Random dither so the kill lands at varied points past the
			// first checkpoint.
			time.Sleep(time.Duration(s.rng.Intn(20)) * time.Millisecond)
			cmd.Process.Kill()
			<-done
			return nil, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// corruptOne damages one surviving checkpoint file at rest — a bit flip
// or a truncation, chosen and placed by the seeded rng — or, sometimes,
// leaves the directory alone (the resume path must handle both).
func (s *soak) corruptOne(ck string) {
	if s.rng.Float64() < 0.3 {
		return
	}
	files, _ := filepath.Glob(filepath.Join(ck, "*.camckpt"))
	if len(files) == 0 {
		return
	}
	path := files[s.rng.Intn(len(files))]
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	if s.rng.Float64() < 0.5 {
		data[s.rng.Intn(len(data))] ^= 1 << s.rng.Intn(8)
	} else {
		data = data[:s.rng.Intn(len(data))]
	}
	os.WriteFile(path, data, 0o644)
}

// cleanSystemState runs the in-process reference simulation once and
// returns its encoded final state.
func cleanSystemState() ([]byte, error) {
	sys, err := buildSystem(context.Background())
	if err != nil {
		return nil, err
	}
	if err := sys.Run(2 * core.SuperviseStride); err != nil {
		return nil, err
	}
	return encodeState(sys)
}

// soakConfig is the configuration every in-process soak simulation uses;
// checkpoint resumes hash it to validate compatibility.
func soakConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	return cfg
}

// buildSystem builds the soak's reference system, armed with the
// heartbeat sink and obs bundle ctx carries and, inside a campaign job,
// checkpointing into the job's directory.
func buildSystem(ctx context.Context) (*core.System, error) {
	cfg := soakConfig()
	sources, err := scenario.Sources([]string{"gcc", "astar"}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, _, err := harness.Run{Config: cfg, Sources: sources}.Build(ctx)
	if err != nil {
		return nil, err
	}
	if dir, ok := campaign.CheckpointDir(ctx); ok {
		sys.SetCheckpointPolicy(core.CheckpointPolicy{Dir: dir, Every: core.SuperviseStride})
	}
	return sys, nil
}

func encodeState(sys *core.System) ([]byte, error) {
	h, payload, err := sys.CheckpointBytes()
	if err != nil {
		return nil, err
	}
	return ckpt.Encode(h, payload), nil
}

// degradationSuite exercises every degradation policy in-process so the
// leak checks below cover their goroutines and buffers.
func (s *soak) degradationSuite(iterSeed uint64) error {
	if err := s.ckptDegradation(iterSeed); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.journalDegradation(iterSeed); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := s.obsDegradation(iterSeed); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// ckptDegradation: with every checkpoint save failing, the run finishes,
// state is byte-identical to the undisturbed reference, and the
// in-memory fallback holds a real checkpoint.
func (s *soak) ckptDegradation(iterSeed uint64) error {
	dir, err := os.MkdirTemp("", "chaossoak-ck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := buildSystem(context.Background())
	if err != nil {
		return err
	}
	var warn bytes.Buffer
	sys.SetCheckpointPolicy(core.CheckpointPolicy{
		Dir:   dir,
		Every: core.SuperviseStride,
		FS:    iofault.NewInjector(iofault.Options{Seed: iterSeed, RenameFail: 1}),
		Warn:  &warn,
	})
	if err := sys.Run(2 * core.SuperviseStride); err != nil {
		return fmt.Errorf("run with dead checkpoint disk aborted: %w", err)
	}
	got, err := encodeState(sys)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, s.refState) {
		return fmt.Errorf("failing checkpoint saves perturbed simulation state")
	}
	degraded, fails := sys.CheckpointHealth()
	if !degraded || fails == 0 {
		return fmt.Errorf("health = (%v, %d), want degraded with failures", degraded, fails)
	}
	if _, _, ok := sys.MemCheckpoint(); !ok {
		return fmt.Errorf("no in-memory checkpoint retained while degraded")
	}
	if !strings.Contains(warn.String(), "degrading") {
		return fmt.Errorf("no degradation notice emitted")
	}
	return nil
}

// healingFS fails the first N renames, then heals.
type healingFS struct {
	iofault.FS
	failsLeft int
}

func (f *healingFS) Rename(oldpath, newpath string) error {
	if f.failsLeft > 0 {
		f.failsLeft--
		return fmt.Errorf("chaossoak: injected rename failure")
	}
	return f.FS.Rename(oldpath, newpath)
}

// journalDegradation: a campaign whose first journal flushes fail must
// still drain cleanly once the disk heals, with a complete journal on
// disk afterwards.
func (s *soak) journalDegradation(iterSeed uint64) error {
	dir, err := os.MkdirTemp("", "chaossoak-jn")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	jn, err := campaign.OpenJournalFS(&healingFS{FS: iofault.OS, failsLeft: 2}, path)
	if err != nil {
		return err
	}
	jobs := make([]campaign.Job, 3)
	for i := range jobs {
		name := fmt.Sprintf("soak-%d-%d", iterSeed, i)
		jobs[i] = campaign.Job{
			Name: name,
			Spec: "trivial",
			Run: func(context.Context, int) (*harness.Table, error) {
				return &harness.Table{Title: name}, nil
			},
		}
	}
	sum, err := campaign.Run(context.Background(), jobs, campaign.Options{Workers: 2, Journal: jn})
	if err != nil {
		return fmt.Errorf("campaign did not drain cleanly after journal heal: %w", err)
	}
	if sum.Completed != 3 {
		return fmt.Errorf("completed %d of 3 jobs", sum.Completed)
	}
	if jn.FlushFailures() == 0 {
		return fmt.Errorf("fault schedule injected no flush failures")
	}
	re, err := campaign.OpenJournal(path)
	if err != nil {
		return err
	}
	if re.Len() != 3 || re.Torn() != 0 {
		return fmt.Errorf("on-disk journal has %d records (%d torn), want 3/0", re.Len(), re.Torn())
	}
	return nil
}

// obsDegradation: an obs server whose accepts all fail must degrade to
// disabled (gauge + notice), never taking anything else down.
func (s *soak) obsDegradation(iterSeed uint64) error {
	reg := obs.NewRegistry()
	var warn bytes.Buffer
	srv := &obs.Server{
		Registry: reg,
		Faults:   iofault.NewInjector(iofault.Options{Seed: iterSeed, AcceptFail: 1}),
		Warn:     &warn,
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	// Poke the listener so the accept loop meets its injected fault; the
	// request itself is expected to fail.
	if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Degraded() {
		if time.Now().After(deadline) {
			return fmt.Errorf("server never degraded under 100%% accept faults")
		}
		time.Sleep(time.Millisecond)
	}
	if v, _ := reg.Value("obs.server.degraded"); v != 1 {
		return fmt.Errorf("obs.server.degraded gauge = %v, want 1", v)
	}
	return srv.Close()
}

// leakChecks fails the soak on goroutine leaks or unbounded heap growth
// across iterations.
func (s *soak) leakChecks(it int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= s.baseline+3 {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running, baseline %d", n, s.baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if it == 1 {
		s.firstHeap = ms.HeapAlloc
	} else if limit := s.firstHeap*3 + 32<<20; ms.HeapAlloc > limit {
		return fmt.Errorf("heap growth: %d bytes live after GC, first iteration held %d", ms.HeapAlloc, s.firstHeap)
	}
	return nil
}
