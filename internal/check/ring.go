// Package check implements runtime invariant checking for the Camouflage
// simulator: pluggable checkers that run on the simulation kernel and stop
// the run with a diagnostic dump the moment an internal invariant breaks.
//
// The checkers guard the properties the reproduction's security claims rest
// on. Credit conservation in the shapers means no traffic is released
// outside the configured distribution; end-to-end flow conservation means
// every request entering the NoC retires exactly once; the DRAM protocol
// checker verifies tRCD/tRRD/tFAW-class constraints against the reference
// timing; the watchdog detects deadlock and livelock. Each failure is
// reported as a Violation carrying a dump of the last K simulation events
// from a shared diagnostic ring buffer, so a checker firing deep into a
// billion-cycle run still leaves a usable trail.
package check

import (
	"fmt"
	"strings"

	"camouflage/internal/dram"
	"camouflage/internal/sim"
)

// Event is one diagnostic ring-buffer entry.
type Event struct {
	Cycle sim.Cycle
	Msg   string
}

// Ring is a fixed-capacity buffer of the most recent diagnostic events.
// Checkers and instrumented components record into it on interesting
// transitions; when a violation fires, the ring's contents become the
// dump attached to the Violation.
type Ring struct {
	buf   []entry
	next  int
	count uint64
}

// entry is one retained event: a formatted message, or a DRAM issue
// kept typed and formatted only when read. Issues are recorded on every
// command and almost all are evicted unread, so formatting them eagerly
// would dominate a checked run.
type entry struct {
	cycle sim.Cycle
	msg   string
	issue dram.IssueEvent
	typed bool // issue holds the event; msg is unset
}

// event returns e as it reads back.
func (e *entry) event() Event {
	if e.typed {
		return Event{Cycle: e.cycle, Msg: formatIssue(&e.issue)}
	}
	return Event{Cycle: e.cycle, Msg: e.msg}
}

// formatIssue renders a DRAM issue event for the diagnostic trail.
func formatIssue(ev *dram.IssueEvent) string {
	return fmt.Sprintf("dram issue rank=%d bank=%d row=%d write=%v act=%v actAt=%d colAt=%d dataAt=%d busy=%v",
		ev.Rank, ev.Bank, ev.Row, ev.Write, ev.Activated, ev.ActAt, ev.ColAt, ev.DataAt, ev.BusyBank)
}

// DefaultRingSize is the diagnostic window attached to violations.
const DefaultRingSize = 64

// NewRing returns a ring keeping the last size events (size <= 0 selects
// DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{buf: make([]entry, 0, size)}
}

// Record appends a formatted event, evicting the oldest when full.
func (r *Ring) Record(now sim.Cycle, format string, args ...any) {
	r.push(entry{cycle: now, msg: fmt.Sprintf(format, args...)})
}

// RecordIssue appends a DRAM issue event at its cycle. It reads back as
// "dram issue rank=... busy=..." but is formatted only when read.
func (r *Ring) RecordIssue(ev dram.IssueEvent) {
	r.push(entry{cycle: ev.Now, issue: ev, typed: true})
}

// push appends e, evicting the oldest entry when full.
func (r *Ring) push(e entry) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.count++
}

// Recorded returns the total number of events ever recorded.
func (r *Ring) Recorded() uint64 { return r.count }

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	oldest := 0
	if len(r.buf) == cap(r.buf) {
		oldest = r.next
	}
	for i := range r.buf {
		out = append(out, r.buf[(oldest+i)%len(r.buf)].event())
	}
	return out
}

// Dump renders the retained events as a human-readable trail, oldest
// first, noting how many earlier events were evicted.
func (r *Ring) Dump() string {
	evs := r.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "last %d of %d diagnostic events:\n", len(evs), r.count)
	for _, ev := range evs {
		fmt.Fprintf(&b, "  [cycle %10d] %s\n", ev.Cycle, ev.Msg)
	}
	return b.String()
}
