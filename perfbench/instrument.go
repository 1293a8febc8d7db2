package main

import (
	"fmt"
	"time"

	"camouflage/internal/ckpt"
	"camouflage/internal/core"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// sampleMask sets the timer sampling rate: a call is timed when the
// sampler's next draw has these bits clear, i.e. one call in 64. Calls are
// always counted.
const sampleMask = 63

// maxSample bounds one timed call. No component call takes this long
// unless the host took the CPU away mid-call.
const maxSample = 100 * time.Microsecond

// span accumulates one method's exact call count and the clock ticks of
// its sampled calls.
type span struct {
	calls   uint64
	samples uint64
	ticks   int64
}

// layer is one layer's spans: Tick (for trace, Source.Next), Skip and
// NextWake.
type layer struct {
	tick, skip, hint span
}

// calls counts every forwarded call.
func (l *layer) calls() uint64 { return l.tick.calls + l.skip.calls + l.hint.calls }

// tracer times the calls a traced run makes into each layer. It is used
// from the simulation goroutine only. At most one timed call is open at a
// time, so a trace source's Next inside a timed cpu Tick is counted but
// not timed, and no time is counted twice.
type tracer struct {
	layers map[string]*layer
	rng    uint64
	open   bool
	// null samples time an empty interval at the same points, at the
	// same rate, as real samples: their mean is the clock's own share of
	// a sample, measured where the samples are taken.
	null      span
	nsPerTick float64
	maxSample int64

	// Event counting: the kernel fires due events at the start of a cycle,
	// before any component ticks, and only ticks schedule events, so the
	// drop in pending events between the last call of one cycle and the
	// first tick of the next is the number fired.
	kernel  *sim.Kernel
	lastNow sim.Cycle
	pending int
	events  uint64
}

func newTracer() *tracer {
	t := &tracer{layers: make(map[string]*layer), rng: 0x9e3779b97f4a7c15}
	for _, name := range componentLayers {
		t.layers[name] = &layer{}
	}
	t.layers["trace"] = &layer{}
	start, t0 := time.Now(), ticks()
	time.Sleep(20 * time.Millisecond)
	t.nsPerTick = float64(time.Since(start)) / float64(ticks()-t0)
	t.maxSample = int64(float64(maxSample) / t.nsPerTick)
	return t
}

// estimate scales s's sampled time, net of the clock's own share, to all
// of its calls, in nanoseconds.
func (t *tracer) estimate(s span) float64 {
	if s.samples == 0 || t.null.samples == 0 {
		return 0
	}
	overhead := float64(t.null.ticks) / float64(t.null.samples)
	net := float64(s.ticks) - float64(s.samples)*overhead
	return net * float64(s.calls) / float64(s.samples) * t.nsPerTick
}

// work is l's estimated time in Tick and Skip.
func (t *tracer) work(l *layer) float64 { return t.estimate(l.tick) + t.estimate(l.skip) }

// begin counts a call on s and reports whether to time it; some of the
// calls it does not time take a null sample instead.
func (t *tracer) begin(s *span) (uint64, bool) {
	s.calls++
	if t.open {
		return 0, false
	}
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	switch t.rng & sampleMask {
	case 0:
		t.open = true
		return ticks(), true
	case 1:
		t.sample(&t.null, ticks())
	}
	return 0, false
}

// end closes a timed call opened by begin.
func (t *tracer) end(s *span, start uint64) {
	t.sample(s, start)
	t.open = false
}

// sample adds the ticks since start to s. A sample longer than maxSample
// is cut to it: such a call was descheduled by the host, and scaled by the
// sampling rate it would swamp the layer's estimate.
func (t *tracer) sample(s *span, start uint64) {
	s.ticks += min(int64(ticks()-start), t.maxSample)
	s.samples++
}

// tickStart counts the events fired since the previous call when now
// starts a new cycle.
func (t *tracer) tickStart(now sim.Cycle) {
	if now != t.lastNow {
		if fired := t.pending - t.kernel.PendingEvents(); fired > 0 {
			t.events += uint64(fired)
		}
		t.lastNow = now
	}
}

// tickEnd records the pending-event count after a component ran.
func (t *tracer) tickEnd() { t.pending = t.kernel.PendingEvents() }

// timedTick forwards Tick to a component and times it.
type timedTick struct {
	c sim.Tickable
	l *layer
	t *tracer
}

func (w *timedTick) Tick(now sim.Cycle) {
	w.t.tickStart(now)
	start, timed := w.t.begin(&w.l.tick)
	w.c.Tick(now)
	if timed {
		w.t.end(&w.l.tick, start)
	}
	w.t.tickEnd()
}

// timedWaker adds a timed NextWake for a component that has one.
type timedWaker struct {
	*timedTick
	w sim.NextWaker
}

func (w timedWaker) NextWake(now sim.Cycle) sim.Cycle {
	start, timed := w.t.begin(&w.l.hint)
	c := w.w.NextWake(now)
	if timed {
		w.t.end(&w.l.hint, start)
	}
	return c
}

// timedSkipper forwards and times Skip.
type timedSkipper struct {
	*timedTick
	s sim.Skipper
}

func (w timedSkipper) Skip(from, to sim.Cycle) {
	start, timed := w.t.begin(&w.l.skip)
	w.s.Skip(from, to)
	if timed {
		w.t.end(&w.l.skip, start)
	}
	w.t.tickEnd()
}

// timedWakeSkipper forwards both optional hooks.
type timedWakeSkipper struct {
	timedWaker
	sk timedSkipper
}

func (w timedWakeSkipper) Skip(from, to sim.Cycle) { w.sk.Skip(from, to) }

// wrap puts c behind a timing wrapper for layer l. The wrapper implements
// sim.NextWaker and sim.Skipper exactly when c does, so the kernel's
// fast-path eligibility is unchanged.
func (t *tracer) wrap(c sim.Tickable, l *layer) sim.Tickable {
	base := &timedTick{c: c, l: l, t: t}
	w, waker := c.(sim.NextWaker)
	s, skipper := c.(sim.Skipper)
	switch {
	case waker && skipper:
		return timedWakeSkipper{timedWaker{base, w}, timedSkipper{base, s}}
	case waker:
		return timedWaker{base, w}
	case skipper:
		return timedSkipper{base, s}
	}
	return base
}

// timedSource forwards Next to a trace source and times it.
type timedSource struct {
	src trace.Source
	l   *layer
	t   *tracer
}

func (s *timedSource) Next() (trace.Entry, bool) {
	start, timed := s.t.begin(&s.l.tick)
	e, ok := s.src.Next()
	if timed {
		s.t.end(&s.l.tick, start)
	}
	return e, ok
}

// wrapSource puts src behind a timing wrapper that also forwards
// trace.Clocked and ckpt.Stater when src implements them, so cores clock
// and checkpoints capture the wrapped source exactly as the bare one.
func (t *tracer) wrapSource(src trace.Source) trace.Source {
	base := &timedSource{src: src, l: t.layers["trace"], t: t}
	c, clocked := src.(trace.Clocked)
	st, stater := src.(ckpt.Stater)
	switch {
	case clocked && stater:
		return struct {
			*timedSource
			trace.Clocked
			ckpt.Stater
		}{base, c, st}
	case clocked:
		return struct {
			*timedSource
			trace.Clocked
		}{base, c}
	case stater:
		return struct {
			*timedSource
			ckpt.Stater
		}{base, st}
	}
	return base
}

// instrument re-registers sys's components on a fresh kernel, each behind
// a timing wrapper, in core.NewSystem's tick order (plus the invariant
// monitor last, as EnableChecks registers it), and installs that kernel as
// sys.Kernel. The fresh kernel takes over the old one's clock, RNG and
// pending events, and the controllers are re-attached to it, so the
// simulation continues exactly as it would have on the old kernel. Call it
// after construction or restore and before the first Run.
func (t *tracer) instrument(sys *core.System) error {
	var e ckpt.Encoder
	sys.Kernel.Snapshot(&e)
	k := sim.NewKernel(sys.Config.Seed)
	for _, mc := range sys.MCs {
		mc.AttachKernel(k)
	}
	if err := k.Restore(ckpt.NewDecoder(e.Bytes())); err != nil {
		return fmt.Errorf("instrument: move kernel state: %w", err)
	}
	reg := func(c sim.Tickable, layer string) { k.Register(t.wrap(c, t.layers[layer])) }
	for _, c := range sys.Cores {
		reg(c, "cpu")
	}
	for _, sh := range sys.ReqShapers {
		if sh != nil {
			reg(sh, "shaper.req")
		}
	}
	reg(sys.ReqNet, "noc.req")
	for i := range sys.Channels {
		reg(sys.Channels[i], "dram")
		reg(sys.MCs[i], "memctrl")
	}
	for _, sh := range sys.RespShapers {
		if sh != nil {
			reg(sh, "shaper.resp")
		}
	}
	reg(sys.RespNet, "noc.resp")
	if sys.Monitor != nil {
		reg(sys.Monitor, "check")
	}
	sys.Kernel = k
	t.kernel = k
	t.lastNow = k.Now()
	t.pending = k.PendingEvents()
	return nil
}

// callCounts returns every layer's exact Tick (for trace, Next) count.
// Unlike NextWake and Skip counts, which depend on where the supervised
// run path's wall-clock-sized chunks end, these are a function of the
// simulation alone, so two traced runs of one seed must agree on them.
func (t *tracer) callCounts() map[string]uint64 {
	out := make(map[string]uint64, len(t.layers))
	for name, l := range t.layers {
		out[name] = l.tick.calls
	}
	return out
}

// reset clears every count before a new traced run.
func (t *tracer) reset() {
	for _, l := range t.layers {
		*l = layer{}
	}
	t.null = span{}
	t.events = 0
}
