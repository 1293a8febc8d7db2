package harness

import (
	"context"
	"fmt"

	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// DesiredStaircase returns the paper's Figure 11 DESIRED distribution:
// per-window bin credits 10, 9, 8, ..., 1 over the default ten bins.
func DesiredStaircase() shaper.Config {
	b := stats.DefaultBinning()
	credits := make([]int, b.N())
	for i := range credits {
		credits[i] = b.N() - i
	}
	// The staircase needs ~2 000 cycles of inter-arrival time to drain
	// (MinWindowSpan); a 4 096-cycle window leaves comfortable slack so
	// the released distribution matches the target exactly.
	return shaper.Config{
		Binning:      b,
		Credits:      credits,
		Window:       4 * shaper.DefaultWindow,
		GenerateFake: true,
		Policy:       shaper.PolicyExact,
	}
}

// AppDistribution is one benchmark's row in the Figure 11 reproduction.
type AppDistribution struct {
	Name string
	// IntrinsicPerWindow is the benchmark's own request distribution
	// (mean requests per bin per replenishment window) at the shaper
	// input.
	IntrinsicPerWindow []float64
	// ShapedPerWindow is the bus-visible distribution after Camouflage.
	ShapedPerWindow []float64
	// MaxAbsDev is the largest |shaped − desired| across bins.
	MaxAbsDev float64
}

// DistributionAccuracyResult reproduces Figure 11: every application's
// request distribution shaped into the same DESIRED staircase.
type DistributionAccuracyResult struct {
	Desired []int
	Apps    []AppDistribution
}

// DistributionAccuracy measures each benchmark's intrinsic request
// distribution and its post-Camouflage distribution under the DESIRED
// staircase configuration (Figure 11).
func DistributionAccuracy(ctx context.Context, cycles sim.Cycle, seed uint64) (*DistributionAccuracyResult, error) {
	if cycles == 0 {
		cycles = DefaultRunCycles
	}
	desired := DesiredStaircase()
	res := &DistributionAccuracyResult{Desired: append([]int(nil), desired.Credits...)}

	cfg := withReqC(seeded(1, seed), desired)
	for _, name := range trace.BenchmarkNames() {
		run, err := Run{Config: cfg, Benchmarks: []string{name}, TraceSeed: seed + 77, Cycles: cycles}.Do(ctx)
		if err != nil {
			return nil, err
		}

		windows := float64(run.ShaperStats.Replenishments)
		if windows == 0 {
			return nil, fmt.Errorf("harness: %s run too short for one window", name)
		}
		app := AppDistribution{
			Name:               name,
			IntrinsicPerWindow: perWindow(run.ShaperIn.Hist, windows),
			ShapedPerWindow:    perWindow(run.ShaperOut.Hist, windows),
		}
		for i, v := range app.ShapedPerWindow {
			d := v - float64(res.Desired[i])
			if d < 0 {
				d = -d
			}
			if d > app.MaxAbsDev {
				app.MaxAbsDev = d
			}
		}
		res.Apps = append(res.Apps, app)
	}
	return res, nil
}

func perWindow(h *stats.Histogram, windows float64) []float64 {
	out := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / windows
	}
	return out
}

// Table renders the result.
func (r *DistributionAccuracyResult) Table() *Table {
	t := &Table{
		Title:   "Figure 11 — request distributions shaped into the DESIRED staircase (requests/bin/window)",
		Columns: []string{"app", "kind", "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "maxdev"},
	}
	desired := make([]string, len(r.Desired))
	for i, d := range r.Desired {
		desired[i] = fmt.Sprintf("%d", d)
	}
	t.AddRow(append(append([]string{"DESIRED", "target"}, desired...), "-")...)
	for _, a := range r.Apps {
		in := make([]string, len(a.IntrinsicPerWindow))
		sh := make([]string, len(a.ShapedPerWindow))
		for i := range a.IntrinsicPerWindow {
			in[i] = fmt.Sprintf("%.1f", a.IntrinsicPerWindow[i])
			sh[i] = fmt.Sprintf("%.1f", a.ShapedPerWindow[i])
		}
		t.AddRow(append(append([]string{a.Name, "intrinsic"}, in...), "-")...)
		t.AddRow(append(append([]string{a.Name, "shaped"}, sh...), f2(a.MaxAbsDev))...)
	}
	return t
}
