package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a run with -trace 0 reports, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// componentLayers are the kernel-registered component layers the traced
// run wraps, named after their packages (the shaper and noc packages each
// supply two layers, one per direction).
var componentLayers = []string{"cpu", "shaper.req", "shaper.resp", "noc.req", "noc.resp", "memctrl", "dram", "check"}

// regenGroups are the paper-regen job groups timed from the campaign
// journal; "rest" holds every job not named here.
var regenGroups = []string{"headline", "fig13a", "fig13b", "fig10a", "fig10b", "fig12", "fig8", "scalability", "rest"}

// perLayer lists what a run with -trace 1 reports, in BENCHMARK.json order.
// Every workload reports every name; a layer absent from a workload
// reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.self_ns_per_kcycle", "ns/kcycle"},
		{"sim.skipped_frac", "ratio"},
		{"sim.jumps_per_kcycle", "1/kcycle"},
		{"sim.events_per_kcycle", "1/kcycle"},
		{"sim.mcycles_per_s", "Mcycle/s"},
	}
	for _, l := range componentLayers {
		defs = append(defs,
			metricDef{l + ".ns_per_kcycle", "ns/kcycle"},
			metricDef{l + ".hint_ns_per_kcycle", "ns/kcycle"},
			metricDef{l + ".share", "ratio"},
			metricDef{l + ".calls_per_kcycle", "1/kcycle"},
		)
	}
	defs = append(defs,
		metricDef{"trace.ns_per_kcycle", "ns/kcycle"},
		metricDef{"trace.entries_per_kcycle", "1/kcycle"},
		metricDef{"cpu.ipc", "work/cycle"},
		metricDef{"cpu.mem_stall_frac", "ratio"},
		metricDef{"shaper.fake_frac", "ratio"},
		metricDef{"memctrl.issued_per_kcycle", "1/kcycle"},
		metricDef{"memctrl.mean_occupancy", "count"},
		metricDef{"dram.row_hit_frac", "ratio"},
		metricDef{"mem.pool_reuse_frac", "ratio"},
		metricDef{"runtime.allocs_per_kcycle", "1/kcycle"},
		metricDef{"runtime.gc_count", "count"},
		metricDef{"ckpt.save_ms", "ms"},
		metricDef{"ckpt.bytes", "bytes"},
		metricDef{"ckpt.restore_ms", "ms"},
		metricDef{"obs.publish_us", "us"},
	)
	for _, g := range regenGroups {
		defs = append(defs, metricDef{"harness." + g + ".job_s", "s"})
	}
	return append(defs,
		metricDef{"campaign.parallel_eff", "ratio"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.fail_frac", "ratio"},
	)
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line the benchmark contract requires.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations and their failures.
type tally struct {
	attempted, failed int
}

// op records one operation's outcome; a failure is also reported on
// stderr so its cause is not lost.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		return false
	}
	return true
}

// emit prints each metric of defs as "metric <name> <value> <unit>", then
// the result object as the last line. values must hold exactly the names
// of defs; a missing or non-finite value is a bug in the benchmark.
func emit(w io.Writer, defs []metricDef, values map[string]float64, t tally) error {
	if len(values) != len(defs) {
		return fmt.Errorf("have %d metric values for %d metrics", len(values), len(defs))
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %s %v %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile returns the highest percentile of xs that leaves at least
// ten samples above it, and that percentile; ok is false when there are
// too few samples for any.
func highPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return 100 * (i + 1) / n, s[i], true
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
