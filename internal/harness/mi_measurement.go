package harness

import (
	"context"

	"camouflage/internal/mi"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// MIBinning is the measurement binning for mutual information — finer
// than the shaper's ten bins so residual structure in the shaped stream is
// not hidden by coarse quantization.
func MIBinning() stats.Binning {
	return stats.ExponentialBinning(16, 1)
}

// MIRow is one scheme's mutual-information measurement.
type MIRow struct {
	Scheme string
	// MI is the mutual information between the protected core's intrinsic
	// request inter-arrival sequence and the bus-visible one, in bits.
	MI float64
	// Leakage is MI as a fraction of the unshaped self-information.
	Leakage float64
}

// MIResult reproduces the §IV-B2 measurement: MI across no shaping, CS and
// ReqC, each without and with fake traffic, for w(ADVERSARY, bzip).
type MIResult struct {
	// SelfInformation is H(X) of the intrinsic sequence (the no-shaping
	// leak).
	SelfInformation float64
	Rows            []MIRow
}

// MutualInformation measures the §IV-B2 table. adversary names the
// co-running benchmark on core 0; the protected benchmark (bzip in the
// paper) runs on cores 1–3 with ReqC on core 1, whose intrinsic-vs-shaped
// timing is measured.
func MutualInformation(ctx context.Context, adversary string, cycles sim.Cycle, seed uint64) (*MIResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	const protected = "bzip"
	binning := MIBinning()
	window := 4 * shaper.DefaultWindow

	res := &MIResult{}

	// Baseline: no shaping. The adversary observes the intrinsic timing
	// directly, so MI is the stream's self-information. The run also
	// measures the protected core's demand, which sizes the shaped
	// variants: shaping only transforms timing when the credit budget is
	// at or below demand (a generous budget passes traffic undelayed).
	run := Run{Config: seeded(4, seed), Benchmarks: mix(adversary, protected), TraceSeed: seed + 3, Cycles: cycles, Watch: 1}
	unshaped := run
	unshaped.Bus = true
	base, err := unshaped.Do(ctx)
	if err != nil {
		return nil, err
	}
	intrinsic := base.Bus.InterArrivals()
	res.SelfInformation = mi.SelfInformation(intrinsic, binning)
	res.Rows = append(res.Rows, MIRow{Scheme: "NoShaping", MI: res.SelfInformation, Leakage: 1})
	demandPerWindow := float64(base.Bus.Count()) / float64(cycles) * float64(window)

	// The shaped distribution's budget: half of demand, so the release
	// pattern is dictated by the configuration rather than the workload.
	budget := int(demandPerWindow * 0.5)
	if budget < 2 {
		budget = 2
	}
	interval := window / sim.Cycle(budget)
	reqcCfg := scaledStaircase(budget, window)

	// Shaped variants: CS and ReqC, without and with fake traffic.
	type variant struct {
		name string
		cfg  shaper.Config
	}
	variants := []variant{
		{"CS (no fake)", shaper.ConstantRate(stats.DefaultBinning(), interval, window, false)},
		{"ReqC (no fake)", withFake(reqcCfg, false)},
		{"CS (fake)", shaper.ConstantRate(stats.DefaultBinning(), interval, window, true)},
		{"ReqC (fake)", withFake(DesiredStaircase(), true)},
	}
	// Each shaped run replays the identical trace seed, so index k of its
	// bus-visible sequence refers to the same program point as index k
	// of the intrinsic one: MI pairs them transaction by transaction,
	// the paper's "before and after Camouflage" comparison.
	for _, v := range variants {
		shaped := run
		shaped.Config = withReqC(run.Config, v.cfg, 1)
		shaped.Shaped = true
		r, err := shaped.Do(ctx)
		if err != nil {
			return nil, err
		}
		m := mi.SequenceMI(intrinsic, r.ShaperOut.Raw, binning)
		res.Rows = append(res.Rows, MIRow{
			Scheme:  v.name,
			MI:      m,
			Leakage: mi.LeakageFraction(res.SelfInformation, m),
		})
	}
	return res, nil
}

// scaledStaircase shrinks the DESIRED staircase shape to the given total
// credit budget, keeping its decreasing profile.
func scaledStaircase(budget int, window sim.Cycle) shaper.Config {
	base := DesiredStaircase()
	cfg := base.Clone()
	cfg.Window = window
	total := base.TotalCredits()
	assigned := 0
	for i, c := range base.Credits {
		cfg.Credits[i] = c * budget / total
		assigned += cfg.Credits[i]
	}
	for i := 0; assigned < budget; i++ {
		cfg.Credits[i%len(cfg.Credits)]++
		assigned++
	}
	return cfg
}

func withFake(cfg shaper.Config, fake bool) shaper.Config {
	c := cfg.Clone()
	c.GenerateFake = fake
	return c
}

// Table renders the result.
func (r *MIResult) Table() *Table {
	t := &Table{
		Title:   "§IV-B2 — mutual information between intrinsic and observed request timing (bits)",
		Columns: []string{"scheme", "MI", "leakage"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Scheme, f4(row.MI), f4(row.Leakage))
	}
	return t
}
