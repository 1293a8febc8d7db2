// Package suite is the canonical experiment catalogue: every table and
// figure of the paper's evaluation, expressed as campaign jobs. It
// exists as a package (rather than private helpers in cmd/experiments)
// so that every binary that must agree on the job list — the
// experiments supervisor and its re-exec'd process workers — builds it
// from the same code: two binaries built from the same tree with the
// same parameters land on the same job names and spec hashes.
package suite

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"camouflage/internal/campaign"
	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
)

// Experiment is one emission unit: a named result assembled from one or
// more campaign jobs (sweeps fan out into a job per point and merge at
// emission; headline derives from the jobs of fig12 and fig13).
type Experiment struct {
	Name string
	Jobs []campaign.Job
	// Merge assembles the emitted table from the jobs' tables, in job
	// order. Nil concatenates their rows (see Table).
	Merge func([]*harness.Table) (*harness.Table, error)
}

// Table assembles the experiment's emitted table from its jobs' tables,
// in job order: Merge's result when set, else the first table's title and
// columns with every table's rows.
func (e Experiment) Table(tables []*harness.Table) (*harness.Table, error) {
	if e.Merge != nil {
		return e.Merge(tables)
	}
	if len(tables) == 1 {
		return tables[0], nil
	}
	merged := &harness.Table{Title: tables[0].Title, Columns: tables[0].Columns}
	for _, t := range tables {
		merged.Rows = append(merged.Rows, t.Rows...)
	}
	return merged, nil
}

// Params are the knobs that shape job specs. A process-isolated worker
// must build the suite from its supervisor's Params, or the spec hashes
// diverge and the worker refuses the assignment.
type Params struct {
	Cycles    sim.Cycle
	Seed      uint64
	Adversary string // fig9 adversary benchmark
	UseGA     bool   // refine BDC configurations with the online GA
}

// Jobs flattens experiments into the campaign job list, preserving
// canonical order. A job that several experiments share (headline reuses
// fig12's and fig13's) appears once, at its first occurrence.
func Jobs(exps []Experiment) []campaign.Job {
	var all []campaign.Job
	seen := map[string]bool{}
	for _, e := range exps {
		for _, j := range e.Jobs {
			if h := j.Hash(); !seen[h] {
				seen[h] = true
				all = append(all, j)
			}
		}
	}
	return all
}

// Names lists the experiments' names in canonical order.
func Names(exps []Experiment) []string {
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// Select resolves a comma-separated -run list against the canonical
// experiment set, preserving canonical order.
func Select(exps []Experiment, run string) ([]Experiment, error) {
	if run == "all" || run == "" {
		return exps, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []Experiment
	for _, e := range exps {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown experiment(s) %s (valid: %s, all)",
			strings.Join(unknown, ", "), strings.Join(Names(exps), ", "))
	}
	return out, nil
}

// Build returns the canonical experiment list. Each job's spec encodes
// every parameter that shapes its result, so the journal's spec hash
// invalidates stale records when a flag changes.
func Build(p Params) []Experiment {
	c, seed, adversary, useGA := p.Cycles, p.Seed, p.Adversary, p.UseGA
	base := fmt.Sprintf("cycles=%d seed=%d", c, seed)
	job := func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) campaign.Job {
		return campaign.Job{
			Name: name,
			Spec: spec,
			Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
				return fn(obs.WithLabel(ctx, name))
			},
		}
	}
	single := func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) Experiment {
		return Experiment{Name: name, Jobs: []campaign.Job{job(name, spec, fn)}}
	}
	tab := func(r interface{ Table() *harness.Table }, err error) (*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}

	fig12 := job("fig12", base, func(ctx context.Context) (*harness.Table, error) {
		return tab(harness.ReqCSpeedup(ctx, c, seed))
	})
	fig13 := func(name, victim string, ga bool) campaign.Job {
		return job(name, fmt.Sprintf("%s bench=%s ga=%t", base, victim, ga), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.BDCComparison(ctx, victim, ga, c, seed))
		})
	}
	fig13a, fig13b := fig13("fig13a", "astar", useGA), fig13("fig13b", "mcf", useGA)
	// The headline reuses the fig12 and fig13 jobs, so a suite runs each
	// simulation once. It compares against non-GA BDC: under -ga it takes
	// non-GA fig13 jobs of its own, named apart because workers resolve
	// jobs by name.
	headline13a, headline13b := fig13a, fig13b
	if useGA {
		headline13a, headline13b = fig13("headline/fig13a", "astar", false), fig13("headline/fig13b", "mcf", false)
	}

	exps := []Experiment{
		single("table1", "static", func(ctx context.Context) (*harness.Table, error) {
			return harness.SchemeCapabilityTable(), nil
		}),
		single("table2", "static", func(ctx context.Context) (*harness.Table, error) {
			return harness.BaseConfigTable(), nil
		}),
		single("fig2", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.TradeoffSpace(ctx, "bzip", c, seed))
		}),
		single("fig3", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.ShapedDistributions(ctx, "bzip", c, seed))
		}),
		single("fig4", fmt.Sprintf("seed=%d key=0x2AAAAAAA bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.KeyDistortion(ctx, 0x2AAAAAAA, 32, seed))
		}),
		single("fig8", fmt.Sprintf("seed=%d victim=gcc coworker=astar pop=16 gens=10", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.GATimeline(ctx, "gcc", "astar", 16, 10, seed))
		}),
		single("fig9", base+" adversary="+adversary, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.ReturnTimeDifference(ctx, adversary, c, seed))
		}),
		single("fig10a", base+" victim=astar coworker=mcf", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.RespCPerformance(ctx, "astar", "mcf", c, seed))
		}),
		single("fig10b", base+" victim=mcf coworker=astar", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.RespCPerformance(ctx, "mcf", "astar", c, seed))
		}),
		single("fig11", base, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.DistributionAccuracy(ctx, c, seed))
		}),
		{Name: "fig12", Jobs: []campaign.Job{fig12}},
		{Name: "fig13a", Jobs: []campaign.Job{fig13a}},
		{Name: "fig13b", Jobs: []campaign.Job{fig13b}},
		single("fig14", fmt.Sprintf("seed=%d key=0x2AAAAAAA bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.CovertChannel(ctx, 0x2AAAAAAA, 32, seed))
		}),
		single("fig15", fmt.Sprintf("seed=%d key=0x01010101 bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.CovertChannel(ctx, 0x01010101, 32, seed))
		}),
		single("mi", base+" bench=astar", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.MutualInformation(ctx, "astar", c, seed))
		}),
		headline(fig12, headline13a, headline13b),
		scalabilitySweep(c, seed, job),
		single("epochrate", base+" bench=gcc", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.EpochRateComparison(ctx, "gcc", c, seed))
		}),
		single("windowleak", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.WithinWindowLeakage(ctx, "bzip", nil, c, seed))
		}),
		single("phasedetect", fmt.Sprintf("cycles=%d seed=%d", 2*c, seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.PhaseDetection(ctx, 2*c, seed))
		}),
		single("mitts", base, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.MITTSFairness(ctx, c, seed))
		}),
		single("robustness", base, func(ctx context.Context) (*harness.Table, error) {
			r, err := harness.Robustness(ctx, c, seed)
			if err != nil {
				return nil, err
			}
			if r.Failed() {
				// The measured matrix is still worth showing; the verdict
				// is fatal (deterministic from the seed, retrying cannot
				// change it).
				return r.Table(), campaign.Fatal(errors.New("some fault classes missed their expectation"))
			}
			return r.Table(), nil
		}),
	}
	return exps
}

// headline derives the abstract's numbers at emission from the tables of
// a fig12 job and the two non-GA fig13 jobs, with no simulation of its
// own.
func headline(fig12, fig13a, fig13b campaign.Job) Experiment {
	jobs := []campaign.Job{fig12, fig13a, fig13b}
	return Experiment{Name: "headline", Jobs: jobs, Merge: func(tables []*harness.Table) (*harness.Table, error) {
		for i, t := range tables {
			if len(t.Values) == 0 {
				return nil, fmt.Errorf("job %s: table carries no unrounded values (its journal record predates them); run without -resume to recompute it", jobs[i].Name)
			}
		}
		r, err := harness.Headline(tables[0], tables[1], tables[2])
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}}
}

// scalabilitySweep fans the §II-B scalability experiment into one job
// per core count — each point derives its sources from seed+cores*31 and
// is independent, so the sweep parallelizes and resumes point-by-point;
// emission merges the rows back into the canonical single table.
func scalabilitySweep(c sim.Cycle, seed uint64, job func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) campaign.Job) Experiment {
	e := Experiment{Name: "scalability"}
	for _, n := range []int{4, 8, 16} {
		n := n
		e.Jobs = append(e.Jobs, job(
			fmt.Sprintf("scalability/%d", n),
			fmt.Sprintf("cycles=%d seed=%d cores=%d", c, seed, n),
			func(ctx context.Context) (*harness.Table, error) {
				r, err := harness.Scalability(ctx, []int{n}, c, seed)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			}))
	}
	return e
}
