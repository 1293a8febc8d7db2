package check

import (
	"errors"
	"sort"

	"camouflage/internal/ckpt"
	"camouflage/internal/sim"
)

// Snapshot serializes the flow checker's accounting so a resumed run
// still detects violations seeded before the checkpoint: the outstanding
// map (sorted by ID for a deterministic payload), pending violations (as
// messages) and the injection/retirement counters.
func (f *FlowChecker) Snapshot(e *ckpt.Encoder) {
	ids := make([]uint64, 0, len(f.outstanding))
	for id := range f.outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Len(len(ids))
	for _, id := range ids {
		en := f.outstanding[id]
		e.U64(id)
		e.U64(uint64(en.injectAt))
		e.Bool(en.fake)
		e.Bool(en.retired)
	}
	e.Len(len(f.pending))
	for _, err := range f.pending {
		e.String(err.Error())
	}
	e.U64(f.injected)
	e.U64(f.retired)
}

// Restore implements ckpt.Stater.
func (f *FlowChecker) Restore(d *ckpt.Decoder) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	f.outstanding = make(map[uint64]flowEntry, n)
	for i := 0; i < n; i++ {
		id := d.U64()
		f.outstanding[id] = flowEntry{
			injectAt: sim.Cycle(d.U64()),
			fake:     d.Bool(),
			retired:  d.Bool(),
		}
	}
	n = d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	f.pending = nil
	for i := 0; i < n; i++ {
		f.pending = append(f.pending, errors.New(d.String()))
	}
	f.injected = d.U64()
	f.retired = d.U64()
	return d.Err()
}

// Snapshot serializes the progress latch so the no-progress window keeps
// counting across a restore instead of resetting.
func (w *Watchdog) Snapshot(e *ckpt.Encoder) {
	e.U64(w.lastProgress)
	e.U64(uint64(w.lastChange))
	e.Bool(w.primed)
}

// Restore implements ckpt.Stater.
func (w *Watchdog) Restore(d *ckpt.Decoder) error {
	w.lastProgress = d.U64()
	w.lastChange = sim.Cycle(d.U64())
	w.primed = d.Bool()
	return d.Err()
}

// Snapshot serializes the protocol checker's per-rank activate history,
// pending violations and counters.
func (dc *DRAMChecker) Snapshot(e *ckpt.Encoder) {
	e.Len(len(dc.ranks))
	for i := range dc.ranks {
		rk := &dc.ranks[i]
		for _, at := range rk.activates {
			e.U64(uint64(at))
		}
		e.Int(rk.idx)
		e.Int(rk.count)
		e.U64(uint64(rk.last))
	}
	e.Len(len(dc.pending))
	for _, err := range dc.pending {
		e.String(err.Error())
	}
	e.U64(dc.issues)
	e.U64(dc.busyBank)
}

// Restore implements ckpt.Stater.
func (dc *DRAMChecker) Restore(d *ckpt.Decoder) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(dc.ranks) {
		return ckpt.Mismatch("check: DRAM checker has %d ranks, checkpoint has %d", len(dc.ranks), n)
	}
	for i := range dc.ranks {
		rk := &dc.ranks[i]
		for j := range rk.activates {
			rk.activates[j] = sim.Cycle(d.U64())
		}
		rk.idx = d.Int()
		rk.count = d.Int()
		rk.last = sim.Cycle(d.U64())
		if d.Err() == nil && (rk.idx < 0 || rk.idx >= len(rk.activates)) {
			return ckpt.Mismatch("check: DRAM checker activate index %d out of range", rk.idx)
		}
	}
	n = d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	dc.pending = nil
	for i := 0; i < n; i++ {
		dc.pending = append(dc.pending, errors.New(d.String()))
	}
	dc.issues = d.U64()
	dc.busyBank = d.U64()
	return d.Err()
}

// Snapshot serializes the monitor's shared diagnostic ring (so a
// violation fired just after a restore dumps the pre-checkpoint trail)
// and every registered checker that carries state — the flow checker's
// outstanding map, the watchdog's progress latch, the DRAM checkers'
// activate histories. Stateless checkers (credit conservation audits the
// shaper's own ledger) contribute only a presence flag. Detected
// violations are not carried over: a checkpoint is only taken on healthy
// runs (the supervised path stops at the first violation).
func (m *Monitor) Snapshot(e *ckpt.Encoder) {
	m.ring.Snapshot(e)
	e.Len(len(m.checkers))
	for _, c := range m.checkers {
		st, ok := c.(ckpt.Stater)
		e.Bool(ok)
		if ok {
			st.Snapshot(e)
		}
	}
}

// Restore implements ckpt.Stater. The live monitor must have been built
// the same way as the snapshotted one (same EnableChecks call on the same
// configuration), so checkers line up by position.
func (m *Monitor) Restore(d *ckpt.Decoder) error {
	if err := m.ring.Restore(d); err != nil {
		return err
	}
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.checkers) {
		return ckpt.Mismatch("check: monitor has %d checkers, checkpoint has %d", len(m.checkers), n)
	}
	for _, c := range m.checkers {
		has := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		st, ok := c.(ckpt.Stater)
		if has != ok {
			return ckpt.Mismatch("check: checker %q statefulness mismatch (checkpoint %v, live %v)", c.Name(), has, ok)
		}
		if ok {
			if err := st.Restore(d); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// Snapshot serializes the retained events and the lifetime count.
func (r *Ring) Snapshot(e *ckpt.Encoder) {
	e.Len(len(r.buf))
	for i := range r.buf {
		ev := r.buf[i].event()
		e.U64(uint64(ev.Cycle))
		e.String(ev.Msg)
	}
	e.Int(r.next)
	e.U64(r.count)
}

// Restore implements ckpt.Stater.
func (r *Ring) Restore(d *ckpt.Decoder) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n > cap(r.buf) {
		return ckpt.Mismatch("check: ring capacity %d, checkpoint has %d events", cap(r.buf), n)
	}
	r.buf = r.buf[:0]
	for i := 0; i < n; i++ {
		r.buf = append(r.buf, entry{cycle: sim.Cycle(d.U64()), msg: d.String()})
	}
	r.next = d.Int()
	r.count = d.U64()
	if d.Err() == nil && (r.next < 0 || r.next >= cap(r.buf)) {
		return ckpt.Mismatch("check: ring cursor %d out of range", r.next)
	}
	return d.Err()
}
