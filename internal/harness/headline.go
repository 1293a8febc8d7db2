package harness

import (
	"fmt"

	"camouflage/internal/stats"
)

// HeadlineResult aggregates the paper's headline throughput claims:
// Camouflage improves program throughput by ~1.12x over CS, ~1.5x over TP
// and ~1.32x over FS.
type HeadlineResult struct {
	VsCS float64
	VsTP float64
	VsFS float64
}

// Headline derives the abstract's comparison numbers from the Figure 12
// table and the two Figure 13 tables (victims astar and mcf) with no
// simulation of its own: the Figure 12 geometric-mean speedup over CS,
// and the geometric means of the per-workload TP/BDC and FS/BDC slowdown
// ratios over both victim sets. It reads the tables' unrounded Values; a
// table without them is an error, never a zero headline.
func Headline(fig12, fig13a, fig13b *Table) (*HeadlineResult, error) {
	if err := checkValues(fig12, 1); err != nil {
		return nil, err
	}
	var tpRatios, fsRatios []float64
	for _, fig13 := range []*Table{fig13a, fig13b} {
		// One TP, FS, BDC triple per row but the GEOMEAN row.
		if err := checkValues(fig13, 3*(len(fig13.Rows)-1)); err != nil {
			return nil, err
		}
		for v := fig13.Values; len(v) > 0; v = v[3:] {
			if tp, fs, bdc := v[0], v[1], v[2]; bdc > 0 {
				tpRatios = append(tpRatios, tp/bdc)
				fsRatios = append(fsRatios, fs/bdc)
			}
		}
	}
	return &HeadlineResult{
		VsCS: fig12.Values[0],
		VsTP: stats.GeoMean(tpRatios),
		VsFS: stats.GeoMean(fsRatios),
	}, nil
}

// checkValues reports a table that does not carry exactly want > 0
// unrounded values.
func checkValues(t *Table, want int) error {
	if want <= 0 || len(t.Values) != want {
		return fmt.Errorf("harness: table %q carries %d unrounded values, want %d", t.Title, len(t.Values), want)
	}
	return nil
}

// Table renders the result against the paper's claims.
func (r *HeadlineResult) Table() *Table {
	t := &Table{
		Title:   "Headline — Camouflage throughput improvement over prior schemes",
		Columns: []string{"baseline", "paper", "measured"},
	}
	t.AddRow("CS (constant rate)", "1.12x", f2(r.VsCS)+"x")
	t.AddRow("TP (temporal partitioning)", "1.50x", f2(r.VsTP)+"x")
	t.AddRow("FS (fixed service + bank partitioning)", "1.32x", f2(r.VsFS)+"x")
	return t
}
