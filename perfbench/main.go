// Command perfbench is the repository benchmark: it runs one workload for
// a given time from a seed, checks the simulated output against committed
// digests, and prints every metric by name with its unit, ending with one
// JSON result line. perfbench/run.sh builds it and the experiments binary
// from the checkout and runs it; README.md describes the workloads and
// metrics.
//
//	bash perfbench/run.sh --workload bdc-saturated --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced runs; with
// -trace 1 it alternates untraced and traced runs and reports per-layer
// metrics. -record rewrites perfbench/digests.json from one run of every
// workload and input seed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// inputSeeds is how many distinct input sets each workload has: a -seed n
// selects input seed n mod inputSeeds + 1, so every seed maps to inputs
// whose output digest is committed.
const inputSeeds = 8

// setupSamples is how many times a run times its set-up phase before
// measuring, to report a median.
const setupSamples = 41

//go:embed digests.json
var digestsJSON []byte

// digests maps workload → input seed → output digest.
type digests map[string]map[string]string

func main() {
	workload := flag.String("workload", "", "workload: bdc-saturated, idle-fastpath, bdc-guarded or paper-regen")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics of untraced runs; 1 reports per-layer metrics from traced runs")
	root := flag.String("root", ".", "checkout root, hashed into the environment stamp")
	experiments := flag.String("experiments", "", "built cmd/experiments binary (paper-regen)")
	work := flag.String("work", "", "scratch directory for checkpoints and journals (default: a temporary directory under -root)")
	record := flag.Bool("record", false, "rewrite perfbench/digests.json from one run of every workload and input seed")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traced == 1, *root, *experiments, *work, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, root, experiments, work string, record bool) error {
	var want digests
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if work == "" {
		work = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if record {
		return recordDigests(root, experiments, dir)
	}
	in := seed%inputSeeds + 1
	wantDigest := want[workload][fmt.Sprint(in)]
	if wantDigest == "" {
		return fmt.Errorf("no committed digest for workload %q input seed %d", workload, in)
	}
	stamp, err := envStamp(root, workload, seed, in, traced)
	if err != nil {
		return err
	}
	fmt.Println(stamp)

	var (
		defs   = endToEnd
		values map[string]float64
		t      tally
	)
	if traced {
		defs = perLayer()
	}
	deadline := time.Duration(seconds * float64(time.Second))
	switch {
	case workload == "paper-regen" && traced:
		values, t, err = traceRegen(experiments, dir, in, deadline, wantDigest)
	case workload == "paper-regen":
		values, t, err = benchRegen(experiments, dir, in, deadline, wantDigest)
	default:
		w, ok := simWorkloadByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		if traced {
			values, t, err = traceSim(w, in, deadline, dir, wantDigest)
		} else {
			values, t, err = benchSim(w, in, deadline, dir, wantDigest)
		}
	}
	if err != nil {
		return err
	}
	if traced {
		values["bench.fail_frac"] = ratio(float64(t.failed), float64(t.attempted))
	}
	return emit(os.Stdout, defs, values, t)
}

func simWorkloadByName(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// more reports whether another operation fits: one that starts now is
// expected to end no more than half an operation past the deadline.
func more(start time.Time, deadline time.Duration, ops int) bool {
	if ops == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*ops) < deadline
}

// benchSim measures untraced runs of a simulator workload.
func benchSim(w simWorkload, seed uint64, deadline time.Duration, dir, want string) (map[string]float64, tally, error) {
	setups, err := simSetups(w, seed)
	if err != nil {
		return nil, tally{}, err
	}
	var walls, cpus []float64
	var t tally
	c := checker{want: want}
	start := time.Now()
	for ops := 0; more(start, deadline, ops); ops++ {
		r, err := runSim(w, seed, nil, dir)
		if err == nil {
			err = c.check(r)
		}
		if !t.op(err) {
			continue
		}
		if w.guarded {
			t.attempted++ // the resume is an operation of its own
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
	}
	report("wall_s", walls)
	report("cpu_s", cpus)
	report("setup_s", setups)
	return map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     median(setups),
	}, t, nil
}

// simSetups times w's set-up phase on this thread's CPU clock, which
// unlike the wall clock does not count time the host gives to other
// guests.
func simSetups(w simWorkload, seed uint64) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out []float64
	for i := 0; i < setupSamples; i++ {
		start := threadCPU()
		if _, err := w.build(seed, nil); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		out = append(out, (threadCPU() - start).Seconds())
	}
	return out, nil
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// checker holds the properties every run of one process must share: the
// committed output digest and the fast path's skipped-cycle count.
type checker struct {
	want    string
	skipped *uint64
}

func (c *checker) check(r *simRun) error {
	if r.digest != c.want {
		return fmt.Errorf("output digest %s, committed %s", r.digest, c.want)
	}
	if c.skipped == nil {
		c.skipped = &r.skipped
	} else if r.skipped != *c.skipped {
		return fmt.Errorf("fast path skipped %d cycles, an earlier run skipped %d", r.skipped, *c.skipped)
	}
	return nil
}

// layerTotals accumulates a layer's estimated host time and calls over
// traced runs.
type layerTotals struct {
	work, hint float64
	calls      uint64
}

// traceSim alternates untraced and traced runs of a simulator workload and
// reports per-layer metrics.
func traceSim(w simWorkload, seed uint64, deadline time.Duration, dir, want string) (map[string]float64, tally, error) {
	var (
		t          tally
		c          = checker{want: want}
		tr         = newTracer()
		refCounts  map[string]uint64
		layers     = make(map[string]*layerTotals)
		plainWalls []float64
		traceWalls []float64
		allocs     []float64
		gcs        []float64
		kernel     float64
		cycles     float64
		events     float64
		jumps      float64
		skipped    float64
		last       *simRun
		saves      []float64
		restores   []float64
		publishes  []float64
	)
	for name := range tr.layers {
		layers[name] = &layerTotals{}
	}
	start := time.Now()
	for pairs := 0; pairs < 2 || more(start, deadline, pairs); pairs++ {
		r, err := runSim(w, seed, nil, dir)
		if err == nil {
			err = c.check(r)
		}
		if t.op(err) {
			if w.guarded {
				t.attempted++
			}
			plainWalls = append(plainWalls, r.wall)
			allocs = append(allocs, ratio(float64(r.mallocs), float64(r.cycles)/1e3))
			gcs = append(gcs, float64(r.gcs))
			saves = append(saves, r.saveMs...)
			restores = append(restores, r.restoreMs...)
			publishes = append(publishes, r.publishUs...)
			last = r
		}

		tr.reset()
		r, err = runSim(w, seed, tr, dir)
		if err == nil {
			err = c.check(r)
		}
		var sum float64
		if err == nil {
			// Source.Next runs inside cpu Ticks, so the cpu layer's time
			// already holds the trace layer's.
			for _, name := range componentLayers {
				l := tr.layers[name]
				sum += tr.work(l) + tr.estimate(l.hint)
			}
			if self := float64(r.kernel) - sum; self < 0 {
				err = fmt.Errorf("traced layers sum to %.0f ns, more than the %.0f ns kernel time: timers overlap", sum, float64(r.kernel))
			}
		}
		if err == nil {
			counts := tr.callCounts()
			counts["sim.events"] = tr.events
			if refCounts == nil {
				refCounts = counts
			} else if !maps.Equal(counts, refCounts) {
				err = fmt.Errorf("traced call counts %v differ from an earlier traced run's %v", counts, refCounts)
			}
		}
		if !t.op(err) {
			continue
		}
		if w.guarded {
			t.attempted++
		}
		traceWalls = append(traceWalls, r.wall)
		for name, l := range tr.layers {
			lt := layers[name]
			lt.work += tr.work(l)
			lt.hint += tr.estimate(l.hint)
			lt.calls += l.calls()
		}
		kernel += float64(r.kernel)
		cycles += float64(r.cycles)
		events += float64(tr.events)
		jumps += float64(r.jumps)
		skipped += float64(r.skipped)
	}

	values := make(map[string]float64)
	for _, d := range perLayer() {
		values[d.Name] = 0
	}
	if last == nil || cycles == 0 {
		return values, t, nil
	}
	kc := cycles / 1e3
	// A cpu Tick includes its source's Next calls; report them as trace.
	layers["cpu"].work -= layers["trace"].work
	self := kernel
	for _, name := range componentLayers {
		lt := layers[name]
		values[name+".ns_per_kcycle"] = lt.work / kc
		values[name+".hint_ns_per_kcycle"] = lt.hint / kc
		values[name+".share"] = ratio(lt.work+lt.hint, kernel)
		values[name+".calls_per_kcycle"] = float64(lt.calls) / kc
		self -= lt.work + lt.hint
	}
	self -= layers["trace"].work
	values["trace.ns_per_kcycle"] = layers["trace"].work / kc
	values["trace.entries_per_kcycle"] = float64(layers["trace"].calls) / kc
	values["sim.self_ns_per_kcycle"] = self / kc
	values["sim.skipped_frac"] = skipped / cycles
	values["sim.jumps_per_kcycle"] = jumps / kc
	values["sim.events_per_kcycle"] = events / kc
	values["sim.mcycles_per_s"] = float64(last.cycles) / median(plainWalls) / 1e6
	for k, v := range modelled(last.final) {
		values[k] = v
	}
	values["runtime.allocs_per_kcycle"] = median(allocs)
	values["runtime.gc_count"] = median(gcs)
	values["ckpt.save_ms"] = median(saves)
	values["ckpt.restore_ms"] = median(restores)
	values["ckpt.bytes"] = float64(last.ckptBytes)
	values["obs.publish_us"] = median(publishes)
	values["bench.trace_overhead_frac"] = median(traceWalls)/median(plainWalls) - 1
	report("untraced wall_s", plainWalls)
	report("traced wall_s", traceWalls)
	printLayerTable(values, self, kernel, kc)
	return values, t, nil
}

// printLayerTable prints the per-layer table README.md's reports are made
// of.
func printLayerTable(v map[string]float64, self, kernel, kc float64) {
	fmt.Println("| layer | ns/kcycle | hint ns/kcycle | share | calls/kcycle |")
	fmt.Println("|---|---:|---:|---:|---:|")
	for _, l := range componentLayers {
		fmt.Printf("| %s | %.0f | %.0f | %.3f | %.0f |\n", l, v[l+".ns_per_kcycle"], v[l+".hint_ns_per_kcycle"], v[l+".share"], v[l+".calls_per_kcycle"])
	}
	fmt.Printf("| trace | %.0f | – | %.3f | %.0f |\n", v["trace.ns_per_kcycle"], ratio(v["trace.ns_per_kcycle"]*kc, kernel), v["trace.entries_per_kcycle"])
	fmt.Printf("| sim (self) | %.0f | – | %.3f | %.0f events |\n", self/kc, ratio(self, kernel), v["sim.events_per_kcycle"])
}

// benchRegen measures untraced full-suite regenerations.
func benchRegen(exe, dir string, seed uint64, deadline time.Duration, want string) (map[string]float64, tally, error) {
	setups, err := regenSetups(exe)
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	var walls, cpus, rss []float64
	start := time.Now()
	for ops := 0; more(start, deadline, ops); ops++ {
		r, ok := suiteOp(&t, exe, dir, seed, false, want)
		if !ok {
			continue
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		rss = append(rss, r.rssMB)
	}
	report("wall_s", walls)
	report("cpu_s", cpus)
	report("setup_s", setups)
	return map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
		"setup_s":     median(setups),
	}, t, nil
}

// regenSetups measures the CPU time of whole "experiments -run table1"
// invocations: process start, suite.Build and the campaign's start and
// stop, with no simulation.
func regenSetups(exe string) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		r, err := runExperiments(exe, false, "-run", "table1", "-jobs", fmt.Sprint(regenJobs))
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		if r.stdout == "" {
			return nil, fmt.Errorf("set up: experiments -run table1 printed nothing")
		}
		out = append(out, r.cpu)
	}
	return out, nil
}

// suiteOp runs one suite and tallies its operations; ok is false when any
// failed, so its timings are not used.
func suiteOp(t *tally, exe, dir string, seed uint64, gctrace bool, want string) (*regenRun, bool) {
	r, outcomes := runSuite(exe, dir, seed, gctrace, want)
	ok := true
	for _, err := range outcomes {
		ok = t.op(err) && ok
	}
	return r, ok
}

// traceRegen alternates untraced suites and suites with the Go runtime's
// GC trace on, and reports the campaign's per-job times.
func traceRegen(exe, dir string, seed uint64, deadline time.Duration, want string) (map[string]float64, tally, error) {
	var (
		t                      tally
		plainWalls, traceWalls []float64
		gcs, effs              []float64
		jobs                   = make(map[string][]float64)
	)
	start := time.Now()
	for ops := 0; ops < 2 || more(start, deadline, ops); ops++ {
		gctrace := ops%2 == 1
		r, ok := suiteOp(&t, exe, dir, seed, gctrace, want)
		if !ok {
			continue
		}
		if gctrace {
			traceWalls = append(traceWalls, r.wall)
			gcs = append(gcs, float64(r.gcs))
		} else {
			plainWalls = append(plainWalls, r.wall)
		}
		effs = append(effs, r.parallelEff())
		for g, s := range r.jobSeconds() {
			jobs[g] = append(jobs[g], s)
		}
	}
	values := make(map[string]float64)
	for _, d := range perLayer() {
		values[d.Name] = 0
	}
	fmt.Println("| job group | job s |")
	fmt.Println("|---|---:|")
	for _, g := range regenGroups {
		values["harness."+g+".job_s"] = median(jobs[g])
		fmt.Printf("| %s | %.2f |\n", g, median(jobs[g]))
	}
	values["campaign.parallel_eff"] = median(effs)
	values["runtime.gc_count"] = median(gcs)
	if len(plainWalls) > 0 && len(traceWalls) > 0 {
		values["bench.trace_overhead_frac"] = median(traceWalls)/median(plainWalls) - 1
	}
	report("untraced wall_s", plainWalls)
	report("traced wall_s", traceWalls)
	return values, t, nil
}

// report prints a timing's sample count, median and highest percentile
// with at least ten samples above it.
func report(name string, xs []float64) {
	line := fmt.Sprintf("timing %s n=%d median=%.6g", name, len(xs), median(xs))
	if p, v, ok := highPercentile(xs); ok {
		line += fmt.Sprintf(" p%d=%.6g", p, v)
	}
	fmt.Println(line)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// envStamp returns the JSON line that identifies where and on what a
// result was measured.
func envStamp(root, workload string, seed, in uint64, traced bool) (string, error) {
	src, err := sourceHash(root)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(map[string]any{"env": map[string]any{
		"workload":   workload,
		"seed":       seed,
		"input_seed": in,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     src,
	}})
	return string(b), err
}
