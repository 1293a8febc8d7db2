package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/dram"
	"camouflage/internal/memctrl"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// simWorkload is one simulator workload: four cores running one trace
// profile, driven through core.System on this goroutine.
type simWorkload struct {
	name    string
	profile string
	// bdc selects core.BDC with the default shaper on both directions;
	// otherwise the system is unshaped.
	bdc bool
	// guarded adds the invariant checkers, observability, checkpoints to
	// disk every ckptEvery cycles and a resume from the middle checkpoint.
	guarded bool
	// cycles is the length of one run (for guarded, of the uninterrupted
	// run; the resume adds its second half).
	cycles sim.Cycle
}

// ckptEvery is the checkpoint spacing of bdc-guarded.
const ckptEvery sim.Cycle = 500_000

// Each run takes about 2 s of host time, so that its time averages over the
// host's second-scale speed swings instead of landing in one of them.
var simWorkloads = []simWorkload{
	{name: "bdc-saturated", profile: "mcf", bdc: true, cycles: 6_000_000},
	{name: "idle-fastpath", profile: "sjeng", cycles: 160_000_000},
	{name: "bdc-guarded", profile: "mcf", bdc: true, guarded: true, cycles: 3_000_000},
}

func (w simWorkload) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	if w.bdc {
		cfg.Scheme = core.BDC
		req, resp := core.DefaultShaperConfig(), core.DefaultShaperConfig()
		cfg.ReqShaperCfg = &req
		cfg.RespShaperCfg = &resp
	}
	return cfg
}

// sources builds one generator per core from seed, behind t's timing
// wrapper when t is not nil.
func (w simWorkload) sources(cfg core.Config, t *tracer) ([]trace.Source, error) {
	p, err := trace.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	srcs := make([]trace.Source, cfg.Cores)
	for i := range srcs {
		g, err := trace.NewGenerator(p, rng.Fork())
		if err != nil {
			return nil, err
		}
		srcs[i] = g
		if t != nil {
			srcs[i] = t.wrapSource(g)
		}
	}
	return srcs, nil
}

// configure applies bdc-guarded's checkers and observability (a registry
// and history, no tracer) to a freshly assembled system.
func (w simWorkload) configure(sys *core.System) error {
	if w.guarded {
		sys.EnableChecks(check.Options{})
		sys.EnableObs(&obs.Bundle{Registry: obs.NewRegistry(), History: obs.NewHistory(obs.HistoryOpts{})}, w.name)
	}
	return nil
}

// build is the set-up phase: sources, core.NewSystem and, for
// bdc-guarded, checks and observability.
func (w simWorkload) build(seed uint64, t *tracer) (*core.System, error) {
	cfg := w.config(seed)
	srcs, err := w.sources(cfg, t)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, srcs)
	if err != nil {
		return nil, err
	}
	return sys, w.configure(sys)
}

// simRun is the outcome of one run (for bdc-guarded, a run and its
// resume).
type simRun struct {
	wall, cpu      float64 // seconds
	cycles         sim.Cycle
	skipped, jumps uint64
	// kernel is the host time spent inside System.Run.
	kernel  time.Duration
	digest  string
	final   *core.System
	mallocs uint64
	gcs     uint32

	saveMs, restoreMs, publishUs []float64
	ckptBytes                    int
}

// runSim performs one run of w from seed. With t set, every system is
// instrumented first. dir receives bdc-guarded's checkpoint files.
func runSim(w simWorkload, seed uint64, t *tracer, dir string) (*simRun, error) {
	r := &simRun{}
	sys, err := w.build(seed, t)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	if t != nil {
		if err := t.instrument(sys); err != nil {
			return nil, err
		}
	}

	if w.guarded {
		// Checkpoint files are removed after the run, outside its time.
		if dir, err = os.MkdirTemp(dir, "run-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	var resumed *core.System
	if w.guarded {
		resumed, err = r.guarded(w, sys, seed, t, dir)
	} else {
		err = r.run(sys, w.cycles)
		r.cycles = w.cycles
	}
	r.wall = time.Since(start).Seconds()
	r.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcs = after.NumGC - before.NumGC
	r.final = sys

	for _, s := range []*core.System{sys, resumed} {
		if s != nil {
			r.skipped += uint64(s.Kernel.SkippedCycles())
			r.jumps += s.Kernel.Jumps()
		}
	}
	if r.digest, err = digest(sys); err != nil {
		return nil, err
	}
	if resumed != nil {
		d, err := digest(resumed)
		if err != nil {
			return nil, err
		}
		if d != r.digest {
			return nil, fmt.Errorf("resumed run digest %s differs from uninterrupted run %s", d, r.digest)
		}
	}
	return r, nil
}

// run advances sys n cycles, adding the time to r.kernel.
func (r *simRun) run(sys *core.System, n sim.Cycle) error {
	start := time.Now()
	err := sys.Run(n)
	r.kernel += time.Since(start)
	return err
}

// guarded runs sys for w.cycles in ckptEvery segments, publishing obs and
// writing a checkpoint after each, then restores the middle checkpoint
// into a new system and runs it to the same end. It returns the resumed
// system.
func (r *simRun) guarded(w simWorkload, sys *core.System, seed uint64, t *tracer, dir string) (*core.System, error) {
	segs := int(w.cycles / ckptEvery)
	mid := segs / 2
	// Every checkpoint goes to a new file: truncating and rewriting one
	// makes ext4 flush it to disk on close, and the run would time the
	// host's disk instead of the checkpoint.
	path := func(run string, seg int) string { return filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", run, seg)) }
	segments := func(s *core.System, from int, run string) error {
		for seg := from; seg < segs; seg++ {
			if err := r.run(s, ckptEvery); err != nil {
				return err
			}
			start := time.Now()
			s.PublishObs()
			r.publishUs = append(r.publishUs, float64(time.Since(start).Nanoseconds())/1e3)
			start = time.Now()
			n, err := writeCheckpoint(s, path(run, seg))
			if err != nil {
				return err
			}
			r.saveMs = append(r.saveMs, float64(time.Since(start).Nanoseconds())/1e6)
			r.ckptBytes = n
		}
		return nil
	}
	if err := segments(sys, 0, "run"); err != nil {
		return nil, err
	}

	start := time.Now()
	resumed, err := restore(w, seed, t, path("run", mid-1))
	if err != nil {
		return nil, err
	}
	r.restoreMs = append(r.restoreMs, float64(time.Since(start).Nanoseconds())/1e6)
	if t != nil {
		if err := t.instrument(resumed); err != nil {
			return nil, err
		}
	}
	if err := segments(resumed, mid, "resume"); err != nil {
		return nil, err
	}
	r.cycles = w.cycles + sim.Cycle(segs-mid)*ckptEvery
	return resumed, nil
}

// restore assembles a system for w from the checkpoint at path.
func restore(w simWorkload, seed uint64, t *tracer, path string) (*core.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg := w.config(seed)
	srcs, err := w.sources(cfg, t)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemFromCheckpoint(f, cfg, srcs, w.configure)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", path, err)
	}
	return sys, nil
}

// writeCheckpoint writes sys's checkpoint to path and returns its size.
func writeCheckpoint(sys *core.System, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := sys.Checkpoint(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return int(fi.Size()), nil
}

// results is the simulated output the digest covers.
type results struct {
	Cycle       sim.Cycle
	Cores       []cpu.Stats
	ReqShapers  []shaper.Stats
	RespShapers []shaper.Stats
	MCs         []memctrl.ControllerStats
	Channels    []dram.ChannelStats
}

// digest hashes the simulated results of sys — per-core, shaper,
// controller and DRAM counters — together with its complete checkpoint
// payload, which covers every other piece of simulation state.
func digest(sys *core.System) (string, error) {
	res := results{Cycle: sys.Kernel.Now()}
	for _, c := range sys.Cores {
		res.Cores = append(res.Cores, c.Stats())
	}
	for _, sh := range sys.ReqShapers {
		if sh != nil {
			res.ReqShapers = append(res.ReqShapers, sh.Stats())
		}
	}
	for _, sh := range sys.RespShapers {
		if sh != nil {
			res.RespShapers = append(res.RespShapers, sh.Stats())
		}
	}
	for i := range sys.MCs {
		res.MCs = append(res.MCs, sys.MCs[i].Stats())
		res.Channels = append(res.Channels, sys.Channels[i].Stats())
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", err
	}
	_, payload, err := sys.CheckpointBytes()
	if err != nil {
		return "", err
	}
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// modelled returns the deterministic, simulated-time per-layer counts of a
// finished system.
func modelled(sys *core.System) map[string]float64 {
	kcycles := float64(sys.Kernel.Now()) / 1e3
	var work, cycles, stall float64
	for _, c := range sys.Cores {
		st := c.Stats()
		work += float64(st.Work)
		cycles += float64(st.Cycles)
		stall += float64(st.MemStallCycles)
	}
	var real, fake float64
	for i := range sys.Cores {
		for _, st := range shaperStats(sys, i) {
			real += float64(st.ReleasedReal)
			fake += float64(st.ReleasedFake)
		}
	}
	var issued, occupancy, hits, accesses float64
	for i := range sys.MCs {
		mc := sys.MCs[i].Stats()
		issued += float64(mc.Issued)
		occupancy += mc.MeanOccupancy() / float64(len(sys.MCs))
		ch := sys.Channels[i].Stats()
		hits += float64(ch.RowHits)
		accesses += float64(ch.RowHits + ch.RowEmpty + ch.RowConfl)
	}
	gets, puts := sys.Pool().Stats()
	return map[string]float64{
		"cpu.ipc":                   ratio(work, cycles),
		"cpu.mem_stall_frac":        ratio(stall, cycles),
		"shaper.fake_frac":          ratio(fake, real+fake),
		"memctrl.issued_per_kcycle": ratio(issued, kcycles),
		"memctrl.mean_occupancy":    occupancy,
		"dram.row_hit_frac":         ratio(hits, accesses),
		"mem.pool_reuse_frac":       ratio(float64(puts), float64(gets)),
	}
}

// shaperStats returns the stats of core i's request and response shapers
// that exist.
func shaperStats(sys *core.System, i int) []shaper.Stats {
	var out []shaper.Stats
	if sh := sys.ReqShapers[i]; sh != nil {
		out = append(out, sh.Stats())
	}
	if sh := sys.RespShapers[i]; sh != nil {
		out = append(out, sh.Stats())
	}
	return out
}
