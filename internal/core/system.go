package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"camouflage/internal/check"
	"camouflage/internal/cpu"
	"camouflage/internal/dram"
	"camouflage/internal/fault"
	"camouflage/internal/mem"
	"camouflage/internal/memctrl"
	"camouflage/internal/noc"
	"camouflage/internal/obs"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// System is one fully wired simulated machine: cores behind private LLCs,
// optional request shapers, the shared request channel, one memory
// controller per DRAM channel, per-core egress (optionally through
// response shapers) and the shared response channel back to the cores.
type System struct {
	Config Config
	Kernel *sim.Kernel

	Cores       []*cpu.Core
	ReqShapers  []*shaper.Shaper // indexed by core, nil if unshaped
	RespShapers []*shaper.Shaper // indexed by core, nil if unshaped
	ReqNet      *noc.Link
	RespNet     *noc.Link
	// MCs and Channels hold one controller/channel pair per DRAM channel;
	// MC and Channel alias index 0 (the paper's base system has a single
	// channel, and most experiments address them directly).
	MCs      []*memctrl.Controller
	Channels []*dram.Channel
	MC       *memctrl.Controller
	Channel  *dram.Channel

	// Monitor is the runtime invariant monitor, nil until EnableChecks.
	Monitor *check.Monitor

	amap *dram.AddrMap
	// ids hands out every request ID in the machine: the caches' misses
	// and writebacks and the shapers' fakes.
	ids      mem.IDSource
	deadline time.Duration

	// pool recycles mem.Request objects across the whole machine: caches
	// and shapers draw from it, cores return every delivered response to
	// it. One pool per system — requests never cross systems.
	pool *mem.Pool

	// inj is the installed fault injector, nil until InjectFaults; kept so
	// its RNG stream and counters ride along in checkpoints.
	inj *fault.Injector
	// ckpt is the armed auto-checkpoint policy, nil until
	// SetCheckpointPolicy.
	ckpt *ckptPolicy

	// obs and obsScope carry the observability layer, nil until EnableObs.
	obs      *obs.Bundle
	obsScope *obs.Scope

	// heartbeat is the supervision-grid liveness hook, nil until
	// SetHeartbeat.
	heartbeat func(Heartbeat)
}

// multiElevator fans priority warnings out to every controller, so a
// response shaper's acceleration request takes effect wherever the core's
// transactions land.
type multiElevator struct {
	mcs []*memctrl.Controller
}

// Elevate implements shaper.PriorityElevator.
func (m multiElevator) Elevate(core, level int, until sim.Cycle) {
	for _, mc := range m.mcs {
		mc.Elevate(core, level, until)
	}
}

// NewSystem builds a system running the given per-core workloads. The
// number of sources must equal cfg.Cores.
func NewSystem(cfg Config, sources []trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("core: %d sources for %d cores", len(sources), cfg.Cores)
	}

	s := &System{Config: cfg, Kernel: sim.NewKernel(cfg.Seed)}
	s.pool = mem.NewPool()
	rng := s.Kernel.RNG()

	// DRAM and its address map (bank-partitioned under FS).
	s.amap = dram.NewAddrMap(cfg.Geometry)
	if cfg.Scheme == FS && cfg.FSBankPartition {
		s.amap.SetBankPartitions(dram.EqualBankPartitions(cfg.Cores, cfg.Geometry.BanksPerRank))
	}

	// One controller per DRAM channel, each with its own instance of the
	// scheme's scheduling policy (schedulers carry per-channel state).
	newSched := func() memctrl.Scheduler {
		switch cfg.Scheme {
		case TP:
			domains := cfg.TPDomains
			if domains <= 0 {
				domains = cfg.Cores
			}
			return memctrl.NewTemporalPartitioning(cfg.TPTurnLength, domains)
		case FS:
			return memctrl.NewFixedService(cfg.Cores)
		case BR:
			interval := cfg.BRRefillInterval
			if interval == 0 {
				interval = sim.Cycle(25 * cfg.Cores)
			}
			return memctrl.NewBandwidthReserve(cfg.Cores, interval)
		default:
			return memctrl.FRFCFS{}
		}
	}
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		channel := dram.NewChannel(cfg.Timing, cfg.Geometry, s.amap)
		channel.SetClosedPage(cfg.ClosedPage)
		s.Channels = append(s.Channels, channel)
		mc := memctrl.NewController(channel, newSched(), cfg.QueueDepth, cfg.Cores)
		// Handler registration order (channel order) is part of the
		// checkpoint contract: restored expiry events address handlers
		// by this index.
		mc.AttachKernel(s.Kernel)
		s.MCs = append(s.MCs, mc)
	}
	s.Channel = s.Channels[0]
	s.MC = s.MCs[0]

	// Shared channels. Requests route to the controller owning their
	// address's DRAM channel.
	s.ReqNet = noc.NewLink("request", cfg.Cores, cfg.NoCInputDepth, cfg.NoCLatency, cfg.NoCWidth)
	s.ReqNet.SetRoute(func(req *mem.Request) mem.ReqPort {
		if !req.Dec.OK {
			s.amap.DecodeReq(req)
		}
		return s.MCs[req.Dec.Channel]
	})
	s.RespNet = noc.NewLink("response", cfg.Cores, cfg.NoCInputDepth, cfg.NoCLatency, cfg.NoCWidth)

	// Cores and their workloads.
	s.Cores = make([]*cpu.Core, cfg.Cores)
	for i := range s.Cores {
		c, err := cpu.New(i, cfg.CPU, sources[i], &s.ids)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		c.SetPool(s.pool)
		s.Cores[i] = c
	}
	s.RespNet.SetRoute(func(req *mem.Request) mem.ReqPort { return s.Cores[req.Core] })

	// Request shapers between cores and the request channel.
	s.ReqShapers = make([]*shaper.Shaper, cfg.Cores)
	reqShaped := make(map[int]bool)
	for _, c := range cfg.reqShapedCores() {
		reqShaped[c] = true
	}
	for i, c := range s.Cores {
		if reqShaped[i] {
			sh, err := shaper.NewRequestShaper(i, cfg.reqCfgFor(i), cfg.CPU.Cache.MSHRs+cfg.CPU.MaxPendingWB, s.ReqNet.Input(i), rng.Fork(), &s.ids)
			if err != nil {
				return nil, fmt.Errorf("request shaper for core %d: %w", i, err)
			}
			sh.SetPool(s.pool)
			s.ReqShapers[i] = sh
			c.SetOut(sh)
		} else {
			c.SetOut(s.ReqNet.Input(i))
		}
	}

	// Response shapers at the controller egress.
	s.RespShapers = make([]*shaper.Shaper, cfg.Cores)
	respShaped := make(map[int]bool)
	for _, c := range cfg.respShapedCores() {
		respShaped[c] = true
	}
	elevator := multiElevator{mcs: s.MCs}
	for i := range s.Cores {
		if respShaped[i] {
			sh, err := shaper.NewResponseShaper(i, cfg.respCfgFor(i), 64, s.RespNet.Input(i), elevator, rng.Fork(), &s.ids)
			if err != nil {
				return nil, fmt.Errorf("response shaper for core %d: %w", i, err)
			}
			sh.SetPool(s.pool)
			s.RespShapers[i] = sh
			for _, mc := range s.MCs {
				mc.SetEgress(i, sh)
			}
		} else {
			for _, mc := range s.MCs {
				mc.SetEgress(i, s.RespNet.Input(i))
			}
		}
	}

	// Tick order fixes the intra-cycle pipeline: cores produce, request
	// shapers release, the request channel moves, DRAM state advances
	// (refresh), the controller issues and retires, response shapers
	// release, the response channel delivers. Each component's wake
	// handle reads s.Kernel when called, so it follows the system onto
	// a kernel that re-registers the components in this order. The
	// controllers arm the request link, which parks while they refuse
	// it, when they free a queue slot.
	register := func(c interface {
		sim.Tickable
		SetWake(sim.WakeHandle)
	}) sim.WakeHandle {
		w := sim.NewWakeHandle(&s.Kernel, s.Kernel.Register(c))
		c.SetWake(w)
		return w
	}
	for _, c := range s.Cores {
		register(c)
	}
	for _, sh := range s.ReqShapers {
		if sh != nil {
			register(sh)
		}
	}
	reqNet := register(s.ReqNet)
	for ch := range s.Channels {
		register(s.Channels[ch])
		register(s.MCs[ch])
		s.MCs[ch].SetSpaceWake(reqNet)
	}
	for _, sh := range s.RespShapers {
		if sh != nil {
			register(sh)
		}
	}
	register(s.RespNet)
	return s, nil
}

// EnableChecks installs the runtime invariant monitor: credit
// conservation on every shaper, end-to-end flow conservation across the
// NoC, the DRAM protocol checker on every channel, and the
// forward-progress watchdog. It must be called once, after NewSystem and
// before the first Run, so the monitor registers after every checked
// component and observes each cycle's final state. The returned monitor
// is also stored in s.Monitor; Run and RunUntilFinished consult it and
// surface violations as errors.
func (s *System) EnableChecks(opt check.Options) *check.Monitor {
	m := check.NewMonitor(s.Kernel, opt)
	ring := m.Ring()

	flow := check.NewFlowChecker(ring, opt.FlowMaxAge)
	s.ReqNet.AddTap(flow.Inject)
	s.RespNet.AddTap(flow.Retire)
	m.Add(flow)

	ref := s.Config.Timing
	if opt.ReferenceTiming != nil {
		ref = *opt.ReferenceTiming
	}
	for i, ch := range s.Channels {
		d := check.NewDRAMChecker(fmt.Sprintf("dram-protocol[%d]", i), ref, s.Config.Geometry.RanksPerChannel, ring)
		ch.SetObserver(d)
		m.Add(d)
	}

	for i, sh := range s.ReqShapers {
		if sh != nil {
			m.Add(check.NewCreditChecker(fmt.Sprintf("credit-req[%d]", i), sh))
		}
	}
	for i, sh := range s.RespShapers {
		if sh != nil {
			m.Add(check.NewCreditChecker(fmt.Sprintf("credit-resp[%d]", i), sh))
		}
	}

	m.Add(check.NewWatchdog("watchdog", s.Outstanding, s.progress, opt.WatchdogWindow))

	s.Kernel.Register(m)
	s.Monitor = m
	return m
}

// InjectFaults installs the injector's link-level fault hook on both
// shared channels. Timing perturbation cannot be retrofitted — apply
// fault.Injector.PerturbTiming to Config.Timing before NewSystem and pass
// the unperturbed timing as check.Options.ReferenceTiming.
func (s *System) InjectFaults(inj *fault.Injector) {
	hook := inj.Hook()
	s.ReqNet.SetFaultHook(hook)
	s.RespNet.SetFaultHook(hook)
	s.inj = inj
}

// SetDeadline bounds each Run / RunUntilFinished call to d of wall-clock
// time (0 disables). Exceeding it returns an error rather than hanging
// the harness on a livelocked simulation.
func (s *System) SetDeadline(d time.Duration) { s.deadline = d }

// Outstanding returns the total number of transactions in flight across
// the NoC links, memory controllers and shaper queues.
func (s *System) Outstanding() int {
	n := s.ReqNet.Outstanding() + s.RespNet.Outstanding()
	for _, mc := range s.MCs {
		n += mc.Outstanding()
	}
	for _, sh := range s.ReqShapers {
		if sh != nil {
			n += sh.QueueLen()
		}
	}
	for _, sh := range s.RespShapers {
		if sh != nil {
			n += sh.QueueLen()
		}
	}
	return n
}

// progress is the watchdog's completion counter: responses (real and
// fake) delivered to the cores, the most downstream point of the
// pipeline.
func (s *System) progress() uint64 {
	var p uint64
	for _, c := range s.Cores {
		st := c.Stats()
		p += st.Responses + st.FakeResponses
	}
	return p
}

// SuperviseStride is the supervision quantum: how many cycles pass
// between grid-point work (auto-checkpoints, observability publishes,
// heartbeats) on the supervised run path.
const SuperviseStride sim.Cycle = 1 << 14

// supervisePoll is the wall-clock interval at which the supervised run
// path re-checks cancellation and the deadline. The cycle loop advances
// in sub-stride chunks sized from the observed simulation rate so a poll
// lands roughly every supervisePoll even when single cycles are slow
// (a wedged trace source, a pathological workload) — without it, a job
// stuck inside one stride would never observe its context.
const supervisePoll = 25 * time.Millisecond

// minSuperviseChunk floors the adaptive chunk so a grotesquely slow
// workload still makes forward progress between polls.
const minSuperviseChunk sim.Cycle = 256

// ErrDeadline marks a run aborted because it exceeded the wall-clock
// deadline set with SetDeadline. Deadline expiry is a property of the
// host (an overloaded machine, a slow CI runner), not of the simulated
// configuration, so callers such as the campaign retry policy treat it
// as transient. Match with errors.Is.
var ErrDeadline = errors.New("wall-clock deadline exceeded")

// Run advances the system n cycles under supervision: a panic inside any
// component is recovered into an error, the invariant monitor (when
// enabled) stops the run at the first violation, and an expired
// wall-clock deadline aborts. The error carries the monitor's diagnostic
// dump when an invariant broke.
func (s *System) Run(n sim.Cycle) error {
	return s.RunContext(context.Background(), n)
}

// RunContext is Run with cooperative cancellation: ctx is polled at
// every supervision-grid point (SuperviseStride cycles) and additionally
// on a wall-clock tick between grid points, so the cycle loop stops
// promptly after ctx is canceled even when single cycles are slow, and
// returns ctx.Err() wrapped with the cycle reached.
func (s *System) RunContext(ctx context.Context, n sim.Cycle) error {
	_, err := s.runSupervised(ctx, n, nil)
	return err
}

// RunUntilFinished runs until every finite workload has completed, or
// limit cycles elapse, under the same supervision as Run; it reports
// whether completion was reached.
func (s *System) RunUntilFinished(limit sim.Cycle) (bool, error) {
	return s.RunUntilFinishedContext(context.Background(), limit)
}

// RunUntilFinishedContext is RunUntilFinished with the cooperative
// cancellation semantics of RunContext.
func (s *System) RunUntilFinishedContext(ctx context.Context, limit sim.Cycle) (bool, error) {
	return s.runSupervised(ctx, limit, func() bool {
		for _, c := range s.Cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	})
}

func (s *System) runSupervised(ctx context.Context, n sim.Cycle, pred func() bool) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: panic at cycle %d: %v\n%s", s.Kernel.Now(), r, debug.Stack())
		}
	}()
	start := time.Now()
	// Supervision points sit on a fixed grid of absolute cycles
	// (startCycle, startCycle+Stride, ...). The kernel's fast path never
	// jumps past the next grid point, and the kernel syncs every lagging
	// component before grid-point work, so auto-checkpoints land on the
	// same cycles — with byte-identical state — whether the run skipped
	// idle spans or stepped every cycle.
	startCycle := s.Kernel.Now()
	end := startCycle + n
	supAt := startCycle
	// abort checks cancellation and the wall-clock deadline; it runs at
	// every grid point and additionally on a wall-clock tick between
	// them, so a stride that is slow in real time is still cancelable.
	abort := func() error {
		s.Kernel.Sync()
		now := s.Kernel.Now()
		ran := now - startCycle
		if cerr := ctx.Err(); cerr != nil {
			s.checkpointOnAbort()
			return fmt.Errorf("core: run canceled at cycle %d after %d of %d cycles: %w", now, ran, n, cerr)
		}
		if s.deadline > 0 && time.Since(start) > s.deadline {
			s.checkpointOnAbort()
			return fmt.Errorf("core: %w (%v) at cycle %d after %d of %d cycles", ErrDeadline, s.deadline, now, ran, n)
		}
		return nil
	}
	// chunk bounds one Advance call; it starts at the floor (so even the
	// first chunk of a pathologically slow workload returns control
	// quickly) and is retuned from each chunk's observed rate so
	// wall-clock polls land roughly every supervisePoll. Grid-point work
	// (checkpoints, obs publishes, heartbeats) stays pinned to the
	// absolute-cycle grid regardless of chunking, so simulated state
	// remains byte-identical run to run; only the polling cadence is
	// wall-clock dependent.
	chunk := minSuperviseChunk
	lastPoll := start
	// lastGrid remembers the most recent in-loop GridSample cycle (valid
	// when gridSampled) so the trailing end-of-run sample is skipped when
	// the run already sampled that exact cycle — SLO streaks must see
	// each grid cycle once.
	var lastGrid sim.Cycle
	gridSampled := false
	for s.Kernel.Now() < end {
		if pred != nil && pred() {
			done = true
			break
		}
		if s.Monitor != nil && s.Monitor.Violated() {
			break
		}
		if now := s.Kernel.Now(); now >= supAt {
			if aerr := abort(); aerr != nil {
				return done, aerr
			}
			lastPoll = time.Now()
			// abort synced the kernel: every component is current.
			s.maybeCheckpoint()
			if s.obsScope != nil {
				s.obsScope.Publish()
			}
			if s.obs != nil {
				// Fleet telemetry rides the same grid: history capture and
				// SLO evaluation see identical (cycle, value) sequences in
				// fast-path, stepped, and resumed runs.
				s.obs.GridSample(now)
				lastGrid, gridSampled = now, true
			}
			if s.heartbeat != nil {
				s.heartbeat(Heartbeat{Cycle: uint64(now)})
			}
			supAt = now + SuperviseStride
		}
		limit := end
		if supAt < limit {
			limit = supAt
		}
		if c := s.Kernel.Now() + chunk; c < limit {
			limit = c
		}
		want := limit - s.Kernel.Now()
		chunkStart := time.Now()
		var advanced sim.Cycle
		if pred == nil {
			// A saturated system advances one cycle per Advance call, so
			// timing each call would spend several clock reads per
			// simulated cycle. With no predicate to re-check between
			// cycles the kernel runs the whole chunk internally; the
			// invariant monitor still stops it cycle-precisely because a
			// violation calls Kernel.Stop, which ends the chunk early.
			advanced = s.Kernel.Run(want)
		} else {
			// A predicate may flip on any ticked cycle and the run must
			// stop on the cycle it does, so advance one step (or one
			// idle jump, over which no state changes) at a time.
			advanced = s.Kernel.Advance(want)
		}
		took := time.Since(chunkStart)
		if est := sim.Cycle(float64(advanced) * (float64(supervisePoll) / float64(took+1))); est < SuperviseStride {
			if est < minSuperviseChunk {
				est = minSuperviseChunk
			}
			chunk = est
		} else {
			chunk = SuperviseStride
		}
		if time.Since(lastPoll) >= supervisePoll {
			if aerr := abort(); aerr != nil {
				return done, aerr
			}
			lastPoll = time.Now()
		}
	}
	s.Kernel.Sync()
	if pred != nil && !done {
		done = pred()
	}
	if s.obsScope != nil {
		// Publish the final partial stride so end-of-run scrapes see the
		// finished state.
		s.obsScope.Publish()
	}
	if s.obs != nil && (!gridSampled || lastGrid != s.Kernel.Now()) {
		s.obs.GridSample(s.Kernel.Now())
	}
	if s.Monitor != nil {
		// Catch violations in the final partial stride.
		s.Monitor.RunChecks(s.Kernel.Now())
		return done, s.Monitor.Err()
	}
	return done, nil
}

// Elevate raises core's scheduling priority on every memory controller
// until the given cycle (MISE highest-priority-mode profiling).
func (s *System) Elevate(core, level int, until sim.Cycle) {
	for _, mc := range s.MCs {
		mc.Elevate(core, level, until)
	}
}

// Pool exposes the system-wide request pool (recycling statistics, misuse
// counters).
func (s *System) Pool() *mem.Pool { return s.pool }

// CoreStats returns core i's counters.
func (s *System) CoreStats(i int) cpu.Stats { return s.Cores[i].Stats() }

// TotalWork sums committed work units across cores.
func (s *System) TotalWork() uint64 {
	var w uint64
	for _, c := range s.Cores {
		w += c.Stats().Work
	}
	return w
}

// IPC returns core i's work units per cycle so far.
func (s *System) IPC(i int) float64 { return s.Cores[i].Stats().IPC() }

// SystemIPC returns the sum of per-core IPCs (the throughput metric the
// paper's "overall throughput" bars report).
func (s *System) SystemIPC() float64 {
	var t float64
	for i := range s.Cores {
		t += s.IPC(i)
	}
	return t
}
