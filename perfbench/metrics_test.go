package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func validName(name string) bool { return metricName.MatchString(name) }

// TestMetricNames checks every reported name against the contract's
// pattern and against the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		seen := make(map[string]bool)
		for i, d := range defs {
			if !validName(d.Name) || len(d.Name) > 64 {
				t.Errorf("%s: invalid metric name %q", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: duplicate metric name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if declared[i].Name != d.Name || declared[i].Unit != d.Unit {
				t.Errorf("%s[%d]: program reports %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, d.Name, d.Unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer(), bench.PerLayer)

	for _, bad := range []string{"", "a b", "ns/kcycle", "x\n"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}
