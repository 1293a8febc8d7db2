package harness

import (
	"context"
	"strconv"

	"camouflage/internal/attack"
	"camouflage/internal/core"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// PhasePeriodCycles is the victim's phase alternation period: long enough
// that an adversary probing at memory speed gets many samples per phase.
const PhasePeriodCycles sim.Cycle = 32_768

// PhaseObservationWindow is the adversary's classification granularity.
const PhaseObservationWindow sim.Cycle = 8_192

// PhaseDetectionResult is the §II-A side-channel experiment: an adversary
// inferring a co-scheduled victim's program phases (memory-busy vs quiet)
// from its own observed response timing, with and without Response
// Camouflage.
type PhaseDetectionResult struct {
	// Unprotected is the adversary's phase classification under FR-FCFS.
	Unprotected attack.PhaseDetection
	// Protected is the classification with RespC on the adversary
	// (shaping what it can observe).
	Protected attack.PhaseDetection
	// ReqCVictims is the classification with ReqC on the victims
	// instead: their bus traffic is held to a constant cadence with fake
	// requests, so the interference the adversary feels on the shared
	// channels (SC1–SC3) no longer tracks their phases — the paper's
	// claim that ReqC protects the path to memory, not just the memory
	// system.
	ReqCVictims attack.PhaseDetection
}

// PhaseDetection runs the experiment: cores 1–3 run a victim that
// alternates between a memory-intensive and a quiet profile every
// PhasePeriodCycles; the adversary (gcc) on core 0 classifies windows by
// its own observed latency. RespC with a fixed response cadence then
// closes the channel.
func PhaseDetection(ctx context.Context, cycles sim.Cycle, seed uint64) (*PhaseDetectionResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles * 2
	}

	run := func(cfg core.Config) (attack.PhaseDetection, *stats.Histogram, error) {
		rng := sim.NewRNG(seed + 61)
		busyP, err := trace.ProfileByName("mcf")
		if err != nil {
			return attack.PhaseDetection{}, nil, err
		}
		quietP, err := trace.ProfileByName("sjeng")
		if err != nil {
			return attack.PhaseDetection{}, nil, err
		}
		advP, err := trace.ProfileByName("gcc")
		if err != nil {
			return attack.PhaseDetection{}, nil, err
		}

		srcs := make([]trace.Source, 4)
		if srcs[0], err = trace.NewGenerator(advP, rng.Fork()); err != nil {
			return attack.PhaseDetection{}, nil, err
		}
		var truthSource *trace.PhasedSource
		for i := 1; i < 4; i++ {
			busy, err := trace.NewGenerator(busyP, rng.Fork())
			if err != nil {
				return attack.PhaseDetection{}, nil, err
			}
			quiet, err := trace.NewGenerator(quietP, rng.Fork())
			if err != nil {
				return attack.PhaseDetection{}, nil, err
			}
			ps := trace.NewPhasedSource(busy, quiet, PhasePeriodCycles)
			srcs[i] = ps
			truthSource = ps
		}

		res, err := Run{Config: cfg, Sources: srcs, Cycles: cycles, Probe: true, RespHist: true}.Do(ctx)
		if err != nil {
			return attack.PhaseDetection{}, nil, err
		}
		times, lats := res.Probe.PairedLatencies()
		det := attack.DetectPhases(times, lats, PhaseObservationWindow, truthSource.PhaseAt)
		return det, res.RespHist, nil
	}

	base := seeded(4, seed)
	unprotected, hist, err := run(base)
	if err != nil {
		return nil, err
	}
	protected, _, err := run(withRespC(base, respCTarget(hist), 0))
	if err != nil {
		return nil, err
	}
	// ReqC on the victims: a constant request cadence at their busy-phase
	// rate, with fake requests keeping it up through quiet phases.
	victimReqC := shaper.ConstantRate(stats.DefaultBinning(), 160, 4*shaper.DefaultWindow, true)
	reqcProtected, _, err := run(withReqC(base, victimReqC, 1, 2, 3))
	if err != nil {
		return nil, err
	}
	return &PhaseDetectionResult{
		Unprotected: unprotected,
		Protected:   protected,
		ReqCVictims: reqcProtected,
	}, nil
}

// Table renders the result.
func (r *PhaseDetectionResult) Table() *Table {
	t := &Table{
		Title:   "§II-A side channel — adversary inferring victim program phases from its own response timing",
		Columns: []string{"scheme", "windows", "accuracy", "mean latency (victim busy)", "mean latency (victim quiet)"},
	}
	add := func(name string, d attack.PhaseDetection) {
		t.AddRow(name, strconv.Itoa(d.Windows), f2(d.Accuracy), f2(d.MeanBusy), f2(d.MeanQuiet))
	}
	add("FR-FCFS", r.Unprotected)
	add("RespC (adversary)", r.Protected)
	add("ReqC (victims)", r.ReqCVictims)
	return t
}
