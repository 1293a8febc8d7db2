package suite

import (
	"reflect"
	"strings"
	"testing"

	"camouflage/internal/campaign"
	"camouflage/internal/harness"
)

func params(useGA bool) Params {
	return Params{Cycles: 100_000, Seed: 1, Adversary: "gcc", UseGA: useGA}
}

func jobNames(jobs []campaign.Job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

func TestJobsUniqueNamesAndHashes(t *testing.T) {
	for _, useGA := range []bool{false, true} {
		jobs := Jobs(Build(params(useGA)))
		names, hashes := map[string]bool{}, map[string]bool{}
		for _, j := range jobs {
			if names[j.Name] {
				t.Errorf("ga=%t: job name %s repeats", useGA, j.Name)
			}
			if hashes[j.Hash()] {
				t.Errorf("ga=%t: job %s hash %s repeats", useGA, j.Name, j.Hash())
			}
			names[j.Name], hashes[j.Hash()] = true, true
		}
		if names["headline"] {
			t.Errorf("ga=%t: headline has a job of its own; it must derive from fig12/fig13", useGA)
		}
	}
}

func TestSelectHeadlineRunsFig12AndFig13Jobs(t *testing.T) {
	for _, tc := range []struct {
		useGA bool
		want  []string
	}{
		{false, []string{"fig12", "fig13a", "fig13b"}},
		{true, []string{"fig12", "headline/fig13a", "headline/fig13b"}},
	} {
		sel, err := Select(Build(params(tc.useGA)), "headline")
		if err != nil {
			t.Fatal(err)
		}
		jobs := Jobs(sel)
		if got := jobNames(jobs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ga=%t: headline jobs %v, want %v", tc.useGA, got, tc.want)
		}
		for _, j := range jobs[1:] {
			if !strings.HasSuffix(j.Spec, "ga=false") {
				t.Errorf("ga=%t: headline job %s spec %q runs the GA", tc.useGA, j.Name, j.Spec)
			}
		}
		// Without -ga the headline's jobs are fig12's and fig13's own, so
		// a full suite runs them once.
		if !tc.useGA {
			full := map[string]string{}
			for _, j := range Jobs(Build(params(false))) {
				full[j.Name] = j.Hash()
			}
			for _, j := range jobs {
				if full[j.Name] != j.Hash() {
					t.Errorf("headline job %s hash %s, suite's is %s", j.Name, j.Hash(), full[j.Name])
				}
			}
		}
	}
}

// TestJobsStableAcrossBuilds pins what a process-isolated worker relies
// on: two Builds from the same Params yield the same job names and spec
// hashes, in the same order.
func TestJobsStableAcrossBuilds(t *testing.T) {
	ids := func(useGA bool) []string {
		var out []string
		for _, j := range Jobs(Build(params(useGA))) {
			out = append(out, j.Name+"\t"+j.Hash())
		}
		return out
	}
	for _, useGA := range []bool{false, true} {
		if a, b := ids(useGA), ids(useGA); !reflect.DeepEqual(a, b) {
			t.Errorf("ga=%t: jobs %v then %v", useGA, a, b)
		}
	}
}

func TestExperimentTableConcatenatesSweepRows(t *testing.T) {
	a := &harness.Table{Title: "sweep", Columns: []string{"n"}, Rows: [][]string{{"4"}}}
	b := &harness.Table{Title: "ignored", Columns: []string{"x"}, Rows: [][]string{{"8"}, {"16"}}}
	got, err := Experiment{}.Table([]*harness.Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := &harness.Table{Title: "sweep", Columns: []string{"n"}, Rows: [][]string{{"4"}, {"8"}, {"16"}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged %+v, want %+v", got, want)
	}
}

func TestHeadlineRejectsTableWithoutValues(t *testing.T) {
	sel, err := Select(Build(params(false)), "headline")
	if err != nil {
		t.Fatal(err)
	}
	// A fig12 table as a journal record written before tables carried
	// their unrounded values.
	stale := &harness.Table{Title: "Figure 12", Rows: [][]string{{"GEOMEAN", "", "", "", "1.09"}}}
	fig13 := &harness.Table{Title: "Figure 13", Rows: [][]string{{"w", "2", "1.5", "1"}, {"GEOMEAN"}}, Values: []float64{2, 1.5, 1}}
	table, err := sel[0].Table([]*harness.Table{stale, fig13, fig13})
	if err == nil {
		t.Fatalf("headline from a stale fig12 table rendered:\n%s", table)
	}
	if !strings.HasPrefix(err.Error(), "job fig12:") {
		t.Errorf("error %q does not name the job", err)
	}
}
