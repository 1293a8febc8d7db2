package dram

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// Channel models one DDR3 channel: its ranks and banks, the shared data
// bus, activate-window throttling (tFAW/tRRD) and refresh. The memory
// controller drives it by asking which queued transactions could issue now
// (CanIssue / IsRowHit) and then committing one with Issue, which returns
// the cycle at which the data burst completes.
type Channel struct {
	timing Timing
	geom   Geometry
	amap   *AddrMap

	// closedPage auto-precharges after every access: rows never stay
	// open, so access latency is uniform (tRCD+tCAS) regardless of
	// history. It costs the row-buffer-hit fast path but removes
	// row-state-dependent timing — a classic hardening knob that pairs
	// with Camouflage.
	closedPage bool

	ranks []rankState

	// dataBusFreeAt is when the channel's shared data bus next frees.
	dataBusFreeAt sim.Cycle
	// lastBurstWrite tracks bus direction for write-to-read turnaround.
	lastBurstWrite bool
	// lastBurstEnd is when the most recent data burst ends.
	lastBurstEnd sim.Cycle

	// commandIssuedAt throttles the command bus to one transaction issue
	// per cycle.
	commandIssuedAt sim.Cycle
	commandUsed     bool

	observer Observer

	// wake re-arms the channel in its kernel's schedule before Issue or
	// Complete changes it (see sim.WakeHandle).
	wake sim.WakeHandle

	stats ChannelStats
}

type rankState struct {
	banks []bank
	// activates holds the times of the most recent four activates for the
	// tFAW window; actCount gates the constraints until a history exists.
	activates [4]sim.Cycle
	actIdx    int
	actCount  int
	lastAct   sim.Cycle
	// nextRefresh is when the next refresh is due; refreshUntil blocks the
	// rank while a refresh is in progress.
	nextRefresh  sim.Cycle
	refreshUntil sim.Cycle
}

// ChannelStats aggregates row-buffer and traffic counters for one channel.
type ChannelStats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowEmpty  uint64
	RowConfl  uint64
	Refreshes uint64
	// BusyCycles approximates data bus utilization.
	BusyCycles sim.Cycle
}

// HitRate returns the fraction of accesses that hit an open row.
func (s ChannelStats) HitRate() float64 {
	total := s.RowHits + s.RowEmpty + s.RowConfl
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// IssueEvent describes one transaction issue for protocol observers: the
// command timings the channel computed plus enough bank history to verify
// tRCD/tRC/tRRD/tFAW-class constraints independently.
type IssueEvent struct {
	Now        sim.Cycle
	Rank, Bank int
	Row        uint64
	Write      bool
	// BusyBank marks the protocol violation of issuing to a bank with a
	// transaction already in flight (a scheduler bug, normally fatal).
	BusyBank bool
	// Activated reports whether this issue opened a row; ActAt is the
	// activate command time and PrevActAt the bank's previous activate
	// (zero when none).
	Activated bool
	ActAt     sim.Cycle
	PrevActAt sim.Cycle
	// Conflict marks a row-buffer conflict (precharge + activate).
	Conflict bool
	// ColAt is the column command time; DataAt when the burst starts.
	ColAt  sim.Cycle
	DataAt sim.Cycle
}

// Observer is notified of every transaction issue. The runtime DRAM
// protocol checker implements it; when an observer is installed, a
// busy-bank issue is reported through it instead of panicking, so the
// supervised run path can surface a diagnostic dump and stop cleanly.
type Observer interface {
	ObserveIssue(ev IssueEvent)
}

// NewChannel returns a channel with the given timing and geometry.
func NewChannel(t Timing, g Geometry, amap *AddrMap) *Channel {
	if err := t.Validate(); err != nil {
		panic(err.Error())
	}
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	ch := &Channel{timing: t, geom: g, amap: amap}
	ch.ranks = make([]rankState, g.RanksPerChannel)
	for r := range ch.ranks {
		ch.ranks[r].banks = make([]bank, g.BanksPerRank)
		for b := range ch.ranks[r].banks {
			ch.ranks[r].banks[b] = newBank()
		}
		ch.ranks[r].nextRefresh = t.TREFI
	}
	return ch
}

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() ChannelStats { return c.stats }

// SetClosedPage switches the channel to a closed-page (auto-precharge)
// policy: every access activates, transfers and precharges, leaving the
// row closed.
func (c *Channel) SetClosedPage(on bool) { c.closedPage = on }

// SetWake installs the channel's handle on its kernel slot. Issue and
// Complete arm it, so the channel's next Tick clears the command latch
// Issue sets, and a refresh blocked on a busy bank retries as soon as
// the bank frees. Neither needs the skipped span folded first: Skip
// reads only commandIssuedAt, and replays it correctly either side of
// an Issue.
func (c *Channel) SetWake(w sim.WakeHandle) { c.wake = w }

// AddrMap returns the channel's address map.
func (c *Channel) AddrMap() *AddrMap { return c.amap }

// Timing returns the channel's timing parameters.
func (c *Channel) Timing() Timing { return c.timing }

// SetObserver installs a protocol observer (nil removes it). With an
// observer installed, a busy-bank issue is reported as an IssueEvent with
// BusyBank set — and the channel degrades gracefully by serializing behind
// the bank — instead of panicking the process.
func (c *Channel) SetObserver(o Observer) { c.observer = o }

// NextWake implements sim.NextWaker: the earliest pending refresh
// deadline, or never when refresh is disabled — between refreshes the
// channel's tick only refreshes the one-command-per-cycle latch, which
// Skip reproduces. A refresh already due but blocked by an in-flight
// bank cannot start before that bank completes, and Complete arms the
// channel, so the blocked rank adds no wake of its own. Issue arms the
// channel too, so the cycle after a command, where the latch clears, is
// always ticked.
func (c *Channel) NextWake(now sim.Cycle) sim.Cycle {
	if c.timing.TREFI == 0 {
		return sim.NeverWake
	}
	w := sim.NeverWake
	for r := range c.ranks {
		nr := c.ranks[r].nextRefresh
		if nr <= now {
			if c.ranks[r].inflight() {
				continue
			}
			return now + 1
		}
		if nr < w {
			w = nr
		}
	}
	return w
}

// Skip implements sim.Skipper. The only per-cycle effect of an idle
// tick is commandUsed = (commandIssuedAt == now), so the latch ends the
// span as the last skipped tick left it. An Issue in the span's last
// cycle came after that tick and leaves the latch set.
func (c *Channel) Skip(from, to sim.Cycle) {
	c.commandUsed = c.commandIssuedAt == to
}

// Tick advances refresh state. Refresh is modeled analytically: when a
// refresh comes due the rank drains (all banks' freeAt) and then blocks for
// tRFC with every row closed.
func (c *Channel) Tick(now sim.Cycle) {
	c.commandUsed = c.commandIssuedAt == now
	if c.timing.TREFI == 0 {
		return
	}
	for r := range c.ranks {
		rk := &c.ranks[r]
		// A due refresh waits for outstanding transactions to finish;
		// Complete arms the channel to retry.
		if now < rk.nextRefresh || rk.inflight() {
			continue
		}
		start := now
		for b := range rk.banks {
			if rk.banks[b].freeAt > start {
				start = rk.banks[b].freeAt
			}
		}
		end := start + c.timing.TRFC
		for b := range rk.banks {
			rk.banks[b].openRow = rowClosed
			rk.banks[b].freeAt = end
		}
		rk.refreshUntil = end
		rk.nextRefresh += c.timing.TREFI
		c.stats.Refreshes++
	}
}

// inflight reports whether any bank of the rank has a transaction in
// flight, which holds off a due refresh.
func (rk *rankState) inflight() bool {
	for b := range rk.banks {
		if rk.banks[b].inflight {
			return true
		}
	}
	return false
}

// IsRowHit reports whether req would hit an open row right now. The
// FR-FCFS scheduler uses it to prefer row hits.
func (c *Channel) IsRowHit(req *mem.Request) bool {
	loc := c.amap.DecodeReq(req)
	b := &c.ranks[loc.Rank].banks[loc.Bank]
	return !b.inflight && b.classify(loc.Row) == rowHit
}

// CanIssue reports whether req's bank can accept a transaction at cycle
// now: the bank has no transaction in flight, its timing obligations have
// elapsed, and the command bus has not been used this cycle.
func (c *Channel) CanIssue(now sim.Cycle, req *mem.Request) bool {
	if c.commandUsed {
		return false
	}
	loc := c.amap.DecodeReq(req)
	rk := &c.ranks[loc.Rank]
	if now < rk.refreshUntil {
		return false
	}
	b := &rk.banks[loc.Bank]
	return !b.inflight && b.freeAt <= now
}

// IssueState answers CanIssue and IsRowHit in one decode and one bank
// lookup — the combined query every scheduler's per-request scan needs.
// hit is meaningful only when can is true (an unissuable request is never
// preferred anyway). It reads the decode memo directly rather than
// materializing a Location: the scan is the busy loop's hottest call.
func (c *Channel) IssueState(now sim.Cycle, req *mem.Request) (can, hit bool) {
	if c.commandUsed {
		return false, false
	}
	if !req.Dec.OK {
		c.amap.DecodeReq(req)
	}
	rk := &c.ranks[req.Dec.Rank]
	if now < rk.refreshUntil {
		return false, false
	}
	b := &rk.banks[req.Dec.Bank]
	if b.inflight || b.freeAt > now {
		return false, false
	}
	return true, b.classify(req.Dec.Row) == rowHit
}

// BankReadyAt returns the earliest cycle req's bank could accept a
// transaction given current state: its freeAt and any in-progress refresh
// on its rank. A bank with a transaction in flight returns sim.NeverWake —
// its readiness becomes known only at Complete, which the controller
// observes directly. The bound is conservative-early: later state changes
// (a refresh starting, another issue) can only push readiness later, and
// the controller rescans at the returned cycle anyway.
func (c *Channel) BankReadyAt(req *mem.Request) sim.Cycle {
	if !req.Dec.OK {
		c.amap.DecodeReq(req)
	}
	rk := &c.ranks[req.Dec.Rank]
	b := &rk.banks[req.Dec.Bank]
	if b.inflight {
		return sim.NeverWake
	}
	at := b.freeAt
	if rk.refreshUntil > at {
		at = rk.refreshUntil
	}
	return at
}

// EarliestDemandIssue reports whether any bank with queued demand can
// accept a transaction at cycle now, and if not, the earliest future cycle
// at which one might (sim.NeverWake when every demanded bank has a
// transaction in flight). demand is indexed rank*BanksPerRank+bank and
// counts queued transactions per bank. The controller uses this as a
// policy-independent pre-gate: when it returns false, every scheduler's
// Pick would return -1, so the per-request scan is skipped entirely until
// the returned wake cycle or a queue/bank state change.
func (c *Channel) EarliestDemandIssue(now sim.Cycle, demand []int32) (bool, sim.Cycle) {
	if c.commandUsed {
		return false, now + 1
	}
	wake := sim.NeverWake
	banks := len(c.ranks[0].banks)
	for r := range c.ranks {
		rk := &c.ranks[r]
		base := r * banks
		for b := range rk.banks {
			if demand[base+b] == 0 {
				continue
			}
			bk := &rk.banks[b]
			if bk.inflight {
				continue
			}
			at := bk.freeAt
			if rk.refreshUntil > at {
				at = rk.refreshUntil
			}
			if at <= now {
				return true, now
			}
			if at < wake {
				wake = at
			}
		}
	}
	return false, wake
}

// Issue commits req to its bank at cycle now and returns the cycle at which
// its data burst completes (data available at the controller). The caller
// must have checked CanIssue. Issue also updates row-buffer state, the
// tFAW/tRRD activate window and data bus occupancy.
func (c *Channel) Issue(now sim.Cycle, req *mem.Request) sim.Cycle {
	c.wake.Arm()
	loc := c.amap.DecodeReq(req)
	rk := &c.ranks[loc.Rank]
	b := &rk.banks[loc.Bank]
	ev := IssueEvent{
		Now:   now,
		Rank:  loc.Rank,
		Bank:  loc.Bank,
		Row:   loc.Row,
		Write: req.Op == mem.Write,
	}
	earliest := now
	if b.inflight {
		// A scheduler bug: the bank still has a transaction in flight.
		// Without an observer this is fatal; with one, the checker records
		// the violation (and dumps diagnostics) while the channel degrades
		// gracefully by serializing behind the busy bank.
		if c.observer == nil {
			panic(fmt.Sprintf("dram: Issue to busy bank %d.%d at cycle %d", loc.Rank, loc.Bank, now))
		}
		ev.BusyBank = true
		if b.freeAt > earliest {
			earliest = b.freeAt
		}
	}
	t := c.timing

	state := b.classify(loc.Row)
	colCmdAt := earliest
	prevAct := b.activatedAt
	switch state {
	case rowHit:
		b.hits++
		c.stats.RowHits++
	case rowEmpty:
		b.misses++
		c.stats.RowEmpty++
		actAt := c.activateTime(rk, earliest)
		c.recordActivate(rk, actAt)
		b.activatedAt = actAt
		colCmdAt = actAt + t.TRCD
		b.openRow = loc.Row
		ev.Activated = true
		ev.ActAt = actAt
		ev.PrevActAt = prevAct
	case rowConflict:
		b.conflicts++
		c.stats.RowConfl++
		// Precharge must respect tRAS from the previous activate.
		preAt := earliest
		if min := b.activatedAt + t.TRAS; min > preAt {
			preAt = min
		}
		actAt := c.activateTime(rk, preAt+t.TRP)
		c.recordActivate(rk, actAt)
		b.activatedAt = actAt
		colCmdAt = actAt + t.TRCD
		b.openRow = loc.Row
		ev.Activated = true
		ev.Conflict = true
		ev.ActAt = actAt
		ev.PrevActAt = prevAct
	}

	// Column command to data, by direction.
	var dataAt sim.Cycle
	if req.Op == mem.Write {
		c.stats.Writes++
		dataAt = colCmdAt + t.TCWL
	} else {
		c.stats.Reads++
		dataAt = colCmdAt + t.TCAS
	}

	// Write-to-read turnaround on the shared bus.
	if req.Op == mem.Read && c.lastBurstWrite {
		if min := c.lastBurstEnd + t.TWTR; min > dataAt {
			dataAt = min
		}
	}
	// Serialize on the data bus.
	if c.dataBusFreeAt > dataAt {
		dataAt = c.dataBusFreeAt
	}
	done := dataAt + t.TBurst
	c.dataBusFreeAt = done
	c.lastBurstEnd = done
	c.lastBurstWrite = req.Op == mem.Write
	c.stats.BusyCycles += t.TBurst

	// Bank occupancy: the bank can take its next transaction after the
	// burst, plus write recovery if this was a write.
	b.freeAt = done
	if req.Op == mem.Write {
		b.freeAt = done + t.TWR
	}
	if c.closedPage {
		// Auto-precharge: the row closes and the bank additionally pays
		// tRP before its next activate.
		b.openRow = rowClosed
		b.freeAt += t.TRP
	}
	b.busyCycles += b.freeAt - earliest
	b.inflight = true
	c.commandIssuedAt = now
	c.commandUsed = true

	if c.observer != nil {
		ev.ColAt = colCmdAt
		ev.DataAt = dataAt
		c.observer.ObserveIssue(ev)
	}
	return done
}

// Complete marks req's bank free for its next transaction. The controller
// calls it when the data burst has finished (the cycle returned by Issue).
func (c *Channel) Complete(req *mem.Request) {
	c.wake.Arm()
	loc := c.amap.DecodeReq(req)
	c.ranks[loc.Rank].banks[loc.Bank].inflight = false
}

// activateTime returns the earliest cycle >= earliest at which an activate
// may be issued on rank rk, honouring tRRD and the four-activate window.
func (c *Channel) activateTime(rk *rankState, earliest sim.Cycle) sim.Cycle {
	at := earliest
	if rk.actCount > 0 {
		if min := rk.lastAct + c.timing.TRRD; min > at {
			at = min
		}
	}
	if c.timing.TFAW > 0 && rk.actCount >= len(rk.activates) {
		// The oldest of the last four activates constrains the fifth.
		oldest := rk.activates[rk.actIdx]
		if min := oldest + c.timing.TFAW; min > at {
			at = min
		}
	}
	return at
}

func (c *Channel) recordActivate(rk *rankState, at sim.Cycle) {
	rk.activates[rk.actIdx] = at
	rk.actIdx = (rk.actIdx + 1) % len(rk.activates)
	rk.actCount++
	rk.lastAct = at
}

// Geometry returns the channel's geometry.
func (c *Channel) Geometry() Geometry { return c.geom }

// BankBusy returns (rank, bank)'s cumulative busy cycles: the time the
// bank was occupied by issued transactions, issue through freeAt.
func (c *Channel) BankBusy(rank, bankIdx int) sim.Cycle {
	return c.ranks[rank].banks[bankIdx].busyCycles
}

// OpenRow returns the open row of (rank, bank), or false if closed.
// It exists for tests.
func (c *Channel) OpenRow(rank, bankIdx int) (uint64, bool) {
	b := &c.ranks[rank].banks[bankIdx]
	if b.openRow == rowClosed {
		return 0, false
	}
	return b.openRow, true
}
