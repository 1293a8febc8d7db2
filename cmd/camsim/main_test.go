package main

import (
	"testing"

	"camouflage/internal/fault"
)

// TestScenarioAppliesEveryFaultClass: a -scenario run takes trace
// corruption and timing perturbation from -faults like a -workload run,
// instead of dropping them silently.
func TestScenarioAppliesEveryFaultClass(t *testing.T) {
	sp, err := fromScenario("../../examples/scenarios/covert-defense.json", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fault.ParseSpec("trace=0.2,timing")
	if err != nil {
		t.Fatal(err)
	}
	sys, inj, err := sp.build(runOpts{faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("scenario run built no fault injector for trace=0.2,timing")
	}
	if got, ref := sys.Channel.Timing(), sp.cfg.Timing; got == ref {
		t.Fatalf("DRAM timing not perturbed: %+v equals the reference", got)
	}
	if err := sys.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Corrupted == 0 {
		t.Fatal("no trace entry corrupted at trace=0.2")
	}
}
