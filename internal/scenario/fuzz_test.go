package scenario

import (
	"bytes"
	"testing"

	"camouflage/internal/trace"
)

// FuzzLoad throws arbitrary bytes at the scenario JSON loader. The
// contract under fuzzing: Load never panics, anything Load accepts also
// validates, and a small accepted scenario with known-profile workloads
// builds (or fails with an error) without panicking.
func FuzzLoad(f *testing.F) {
	// Committed seeds: the documented example, minimal valid scenarios
	// for several schemes, and near-miss malformed inputs that steer the
	// fuzzer at each validation branch.
	seeds := []string{
		`{"name":"bdc-demo","scheme":"bdc","cycles":500000,"cores":[
			{"workload":"mcf","resp_shaper":{"credits":[4,3,2,1,1,1,1,1,1,1]}},
			{"workload":"astar","req_shaper":{"credits":[10,9,8,7,6,5,4,3,2,1],"fake":true}},
			{"workload":"astar"},
			{"workload":"astar"}]}`,
		`{"name":"plain","scheme":"noshaping","cores":[{"workload":"gcc"}]}`,
		`{"name":"tp","scheme":"tp","tp_turn_length":512,"cores":[{"workload":"gcc"},{"workload":"mcf"}]}`,
		`{"name":"reqc","scheme":"reqc","seed":7,"cores":[
			{"workload":"apache","req_shaper":{"periodic_interval":100,"policy":"oblivious","randomize":true}}]}`,
		`{"name":"fs","scheme":"fs","fs_bank_partition":true,"closed_page":true,"channels":2,"cores":[{"workload":"bzip"}]}`,
		`{"name":"","scheme":"bogus","cores":[{"workload":"gcc"}]}`,
		`{"name":"empty","scheme":"noshaping","cores":[]}`,
		`{"name":"noworkload","scheme":"noshaping","cores":[{"workload":""}]}`,
		`{"name":"badshaper","scheme":"reqc","cores":[{"workload":"gcc","req_shaper":{}}]}`,
		`{"name":"badpolicy","scheme":"reqc","cores":[{"workload":"gcc","req_shaper":{"credits":[1],"policy":"nope"}}]}`,
		`{"unknown_field":true}`,
		`{"name":"trunc`,
		`[]`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario Validate rejects: %v", err)
		}
		// Build only small scenarios whose workloads are benchmark
		// profiles: fuzzed workload strings are also tried as file paths,
		// and fuzzed core counts can be arbitrarily large.
		if len(s.Cores) > 8 {
			return
		}
		for _, c := range s.Cores {
			if _, err := trace.ProfileByName(c.Workload); err != nil {
				return
			}
		}
		if _, err := build(s); err == nil {
			return // built fine — nothing more to check
		}
	})
}
