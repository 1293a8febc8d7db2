// Package memctrl implements the memory controller: a bounded transaction
// queue in front of the DRAM channel plus pluggable scheduling policies.
// The policies are the paper's baselines and building blocks:
//
//   - FR-FCFS: first-ready, first-come-first-serve with per-core priority
//     elevation (used by MISE highest-priority epochs and by Response
//     Camouflage's acceleration warnings),
//   - Temporal Partitioning (TP, Wang et al. HPCA'14): fixed time turns per
//     security domain with dead time,
//   - Fixed Service (FS, Shafiee et al. MICRO'15): constant per-thread
//     service slots, usually combined with bank partitioning in the
//     address map.
package memctrl

import (
	"camouflage/internal/dram"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// Scheduler selects which queued transaction to issue next.
type Scheduler interface {
	// Pick returns the index within q of the transaction to issue at
	// cycle now, or -1 if none may issue. q is in arrival order. ch
	// exposes bank readiness and row state. prio maps core index to its
	// current priority level (higher wins).
	Pick(now sim.Cycle, q []*mem.Request, ch *dram.Channel, prio []int) int
	// Name identifies the policy in reports.
	Name() string
}

// FRFCFS is the baseline first-ready FCFS scheduler with priority
// elevation: among issuable transactions it picks the highest priority
// level, then prefers row hits, then the oldest.
type FRFCFS struct{}

// Name implements Scheduler.
func (FRFCFS) Name() string { return "FR-FCFS" }

// Pick implements Scheduler.
func (FRFCFS) Pick(now sim.Cycle, q []*mem.Request, ch *dram.Channel, prio []int) int {
	best := -1
	bestPrio := 0
	bestHit := false
	for i, req := range q {
		can, hit := ch.IssueState(now, req)
		if !can {
			continue
		}
		p := corePriority(prio, req.Core)
		if best == -1 || p > bestPrio || (p == bestPrio && hit && !bestHit) {
			best, bestPrio, bestHit = i, p, hit
		}
	}
	return best
}

// TemporalPartitioning divides time into fixed-length turns, one security
// domain at a time. Only the active domain's transactions may issue, and
// only if they can complete before the turn's dead time, which prevents a
// transaction from leaking into the next domain's turn.
type TemporalPartitioning struct {
	// TurnLength is the turn duration in cycles.
	TurnLength sim.Cycle
	// DeadTime is the tail of each turn in which nothing may issue
	// (sized to the worst-case transaction latency).
	DeadTime sim.Cycle
	// Domains is the number of security domains; domain = core % Domains.
	Domains int
}

// TPDeadTime is the dead time of every TP turn: a worst-case DDR3-1333
// row conflict (tRAS+tRP+tRCD+tCAS+tBurst, 200 cycles). A transaction
// may issue only where the rest of its turn still covers it, so the
// first cycle of a turn is the last chance for a turn of exactly this
// length, and a shorter turn never issues at all.
func TPDeadTime() sim.Cycle {
	t := dram.DDR3_1333()
	return t.TRAS + t.TRP + t.TRCD + t.TCAS + t.TBurst
}

// NewTemporalPartitioning returns a TP scheduler with the paper-typical
// shape: turn length in cycles, dead time covering a worst-case row
// conflict (TPDeadTime), and one domain per core.
func NewTemporalPartitioning(turn sim.Cycle, domains int) *TemporalPartitioning {
	return &TemporalPartitioning{TurnLength: turn, DeadTime: TPDeadTime(), Domains: domains}
}

// Name implements Scheduler.
func (tp *TemporalPartitioning) Name() string { return "TP" }

// ActiveDomain returns the security domain whose turn covers cycle now.
func (tp *TemporalPartitioning) ActiveDomain(now sim.Cycle) int {
	return int(now / tp.TurnLength % sim.Cycle(tp.Domains))
}

// Pick implements Scheduler.
func (tp *TemporalPartitioning) Pick(now sim.Cycle, q []*mem.Request, ch *dram.Channel, _ []int) int {
	domain := tp.ActiveDomain(now)
	turnEnd := (now/tp.TurnLength + 1) * tp.TurnLength
	if tp.DeadTime > 0 && now+tp.DeadTime > turnEnd {
		return -1 // inside dead time
	}
	best := -1
	bestHit := false
	for i, req := range q {
		if req.Core%tp.Domains != domain {
			continue
		}
		can, hit := ch.IssueState(now, req)
		if !can {
			continue
		}
		if best == -1 || (hit && !bestHit) {
			best, bestHit = i, hit
		}
	}
	return best
}

// FixedService grants each core a service slot in strict rotation; a core
// may issue at most one transaction per slot, whether or not it has
// demand, so each thread sees a constant injection rate independent of its
// neighbours. The paper pairs FS with bank partitioning (configured on the
// dram.AddrMap) so row-buffer state is also per-core.
type FixedService struct {
	// SlotLength is each core's service slot in cycles.
	SlotLength sim.Cycle
	// Cores is the number of rotating slots.
	Cores int

	// lastSlotIssued remembers the most recent slot index in which a
	// transaction was issued, enforcing one issue per slot.
	lastSlotIssued uint64
	issuedInSlot   bool
}

// NewFixedService returns an FS scheduler with slots sized to a
// closed-row access (activate + column command + burst): the constant
// per-thread service rate FS guarantees must hold even when every access
// opens a new row in the thread's bank partition.
func NewFixedService(cores int) *FixedService {
	t := dram.DDR3_1333()
	slot := t.TRCD + t.TCAS + t.TBurst
	return &FixedService{SlotLength: slot, Cores: cores}
}

// Name implements Scheduler.
func (fs *FixedService) Name() string { return "FS" }

// Pick implements Scheduler.
func (fs *FixedService) Pick(now sim.Cycle, q []*mem.Request, ch *dram.Channel, _ []int) int {
	slot := uint64(now / fs.SlotLength)
	core := int(slot % uint64(fs.Cores))
	if slot != fs.lastSlotIssued {
		fs.lastSlotIssued = slot
		fs.issuedInSlot = false
	}
	if fs.issuedInSlot {
		return -1
	}
	best := -1
	bestHit := false
	for i, req := range q {
		if req.Core != core {
			continue
		}
		can, hit := ch.IssueState(now, req)
		if !can {
			continue
		}
		if best == -1 || (hit && !bestHit) {
			best, bestHit = i, hit
		}
	}
	if best >= 0 {
		fs.issuedInSlot = true
	}
	return best
}

// BandwidthReserve implements the bandwidth-reservation design the paper
// cites as reference [37] (Gundu et al., HASP'14): each core holds a token
// bucket refilled at a fixed reserved rate and a transaction may issue
// only when its core has a token. Cores cannot exceed their reservation,
// so one core's service rate is independent of the others' demand — but
// unlike Camouflage, unused reservations are simply wasted and request
// timing within the budget still leaks.
type BandwidthReserve struct {
	// RefillInterval is the cycles per token granted to each core.
	RefillInterval sim.Cycle
	// Burst caps accumulated tokens per core.
	Burst float64

	tokens     []float64
	lastRefill sim.Cycle
}

// NewBandwidthReserve returns a reservation scheduler granting each of
// cores one transaction per refillInterval cycles, with a small burst
// allowance.
func NewBandwidthReserve(cores int, refillInterval sim.Cycle) *BandwidthReserve {
	if refillInterval == 0 {
		refillInterval = 1
	}
	return &BandwidthReserve{
		RefillInterval: refillInterval,
		Burst:          4,
		tokens:         make([]float64, cores),
	}
}

// Name implements Scheduler.
func (br *BandwidthReserve) Name() string { return "BWReserve" }

// Pick implements Scheduler.
func (br *BandwidthReserve) Pick(now sim.Cycle, q []*mem.Request, ch *dram.Channel, _ []int) int {
	if now > br.lastRefill {
		grant := float64(now-br.lastRefill) / float64(br.RefillInterval)
		for i := range br.tokens {
			br.tokens[i] += grant
			if br.tokens[i] > br.Burst {
				br.tokens[i] = br.Burst
			}
		}
		br.lastRefill = now
	}
	best := -1
	bestHit := false
	for i, req := range q {
		if req.Core < 0 || req.Core >= len(br.tokens) || br.tokens[req.Core] < 1 {
			continue
		}
		can, hit := ch.IssueState(now, req)
		if !can {
			continue
		}
		if best == -1 || (hit && !bestHit) {
			best, bestHit = i, hit
		}
	}
	if best >= 0 {
		br.tokens[q[best].Core]--
	}
	return best
}

func corePriority(prio []int, core int) int {
	if core >= 0 && core < len(prio) {
		return prio[core]
	}
	return 0
}
