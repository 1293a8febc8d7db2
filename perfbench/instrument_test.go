package main

import (
	"testing"

	"camouflage/internal/sim"
)

// TestInstrumentedRunMatchesBare checks that a traced run keeps the
// kernel's fast path eligible and simulates exactly what the bare run
// does: same output digest, same skipped cycles.
func TestInstrumentedRunMatchesBare(t *testing.T) {
	for _, w := range simWorkloads {
		w := w
		w.cycles /= 20
		if w.guarded {
			w.cycles = 2 * ckptEvery
		}
		t.Run(w.name, func(t *testing.T) {
			bare, err := runSim(w, 3, nil, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			sys, err := w.build(3, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.instrument(sys); err != nil {
				t.Fatal(err)
			}
			if !sys.Kernel.FastPathEligible() {
				t.Fatal("instrumented kernel lost fast-path eligibility")
			}
			traced, err := runSim(w, 3, tr, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest != bare.digest {
				t.Errorf("traced digest %s, bare %s", traced.digest, bare.digest)
			}
			if traced.skipped != bare.skipped {
				t.Errorf("traced run skipped %d cycles, bare %d", traced.skipped, bare.skipped)
			}
			if tr.layers["cpu"].tick.calls == 0 || tr.layers["trace"].tick.calls == 0 {
				t.Error("no calls counted")
			}
		})
	}
}

// TestWrapKeepsMethodSet checks that a wrapper offers NextWake and Skip
// exactly when the wrapped component does.
func TestWrapKeepsMethodSet(t *testing.T) {
	tr := &tracer{layers: map[string]*layer{}}
	l := &layer{}
	cases := []struct {
		name         string
		c            sim.Tickable
		waker, skips bool
	}{
		{"tick only", sim.TickFunc(func(sim.Cycle) {}), false, false},
		{"waker", waker{}, true, false},
		{"waker and skipper", wakeSkipper{}, true, true},
	}
	for _, c := range cases {
		w := tr.wrap(c.c, l)
		_, waker := w.(sim.NextWaker)
		_, skips := w.(sim.Skipper)
		if waker != c.waker || skips != c.skips {
			t.Errorf("%s: wrapper NextWaker=%v Skipper=%v, want %v %v", c.name, waker, skips, c.waker, c.skips)
		}
	}
}

type waker struct{}

func (waker) Tick(sim.Cycle)                   {}
func (waker) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

type wakeSkipper struct{ waker }

func (wakeSkipper) Skip(from, to sim.Cycle) {}
