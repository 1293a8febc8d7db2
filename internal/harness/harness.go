// Package harness reproduces the paper's evaluation: one runner per table
// and figure, each simulating the workloads of §IV-A as Runs (run.go)
// and reporting the same rows or series the paper plots. The
// per-experiment index lives in DESIGN.md; measured results against the
// paper's are recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"

	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// DefaultRunCycles is the default measured-run length. It is long enough
// for hundreds of replenishment windows and thousands of memory requests
// per core, which stabilizes the IPC and distribution measurements.
const DefaultRunCycles sim.Cycle = 400_000

// WarmupCycles is discarded before measurement where warm caches matter.
const WarmupCycles sim.Cycle = 50_000

// AdversaryName labels the adversary slot in workload reports.
const AdversaryName = "ADVERSARY"

// SoloSource builds a single-benchmark source list for a 1-core system.
func SoloSource(name string, seed uint64) ([]trace.Source, error) {
	return Run{Benchmarks: []string{name}, TraceSeed: seed}.sources()
}

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Values carries the unrounded numbers a derived table is computed
	// from (Headline reads Figure 12's and Figure 13's). String and CSV
	// never render it; it travels with the table through the journal and
	// the worker transports, whose JSON round-trips a float64 exactly.
	Values []float64 `json:",omitempty"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-style comma-separated values (header
// row first, no title), for plotting pipelines.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				sb.WriteByte('"')
			} else {
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f4 formats a float with four decimals.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// Sparkline renders a count series as a one-line unicode bar chart, the
// closest text analogue of the paper's traffic-over-time figures.
func Sparkline(counts []int) string {
	if len(counts) == 0 {
		return ""
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat("▁", len(counts))
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, c := range counts {
		idx := c * (len(levels) - 1) / max
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
