package shaper

import (
	"fmt"
	"math"

	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// binCore is a Shaper's credit machinery, the same for ReqC and RespC:
// the live credit bins, the unused-credit bins feeding the fake traffic
// generator, and the replenishment clock.
type binCore struct {
	cfg     Config
	credits []int
	unused  []int

	lastRelease sim.Cycle
	released    bool

	nextReplenish sim.Cycle

	// nextSlot is the next release opportunity in strict periodic mode;
	// curInterval is the active slot interval (re-selected at epoch
	// boundaries in epoch-rate mode).
	nextSlot    sim.Cycle
	curInterval sim.Cycle

	// nextEpoch and epochArrivals drive Fletcher et al. epoch-rate
	// switching.
	nextEpoch     sim.Cycle
	epochArrivals uint64

	// rng and jitterFrac implement RandomizeWithinBin; jitterFrac is
	// redrawn after every release.
	rng        *sim.RNG
	jitterFrac float64

	// nextRelease and reservedBin drive PolicyOblivious: the next
	// scheduled release point and the credit bin it was drawn from
	// (-1 when no credits remain until replenishment).
	nextRelease sim.Cycle
	reservedBin int

	led ledger

	stats Stats

	// wakeGen counts mutations of the credit state the release verdicts
	// read (credits, unused, released/lastRelease, jitterFrac, the
	// clocks); the verdict memos below are keyed by it.
	wakeGen uint64

	// Release-verdict memos. releaseBin and fakeBin are pure functions of
	// the credit state (versioned by wakeGen) and the inter-arrival time,
	// and the inter-arrival time only changes the verdict when it crosses
	// the current bin's upper edge or the within-bin jitter threshold —
	// so a verdict computed at one cycle holds for every cycle in
	// [from, until) at the same wakeGen. The busy loop consults these
	// every cycle; without the memo each tick rescans the credit bins.
	// Derived state — never serialized; Restore invalidates via wakeGen.
	realMemo releaseMemo
	fakeMemo releaseMemo
}

// releaseMemo caches one release verdict with its validity window.
type releaseMemo struct {
	gen         uint64
	from, until sim.Cycle
	bin         int
	ok          bool
}

// ledger follows every credit from grant to disposal. The runtime credit
// conservation checker asserts, at any cycle,
//
//	granted == consumed + banked + discarded + live credits
//	banked  == fakeSpent + pending unused credits
//
// so a lost or double-spent credit — the failure that would silently bend
// the shaped distribution away from the configured one — is caught while
// the simulation is still running.
type ledger struct {
	granted   uint64 // credits placed into the live bins (initial fill + replenishments)
	consumed  uint64 // live credits spent on real releases (or oblivious draws)
	banked    uint64 // live credits moved into the unused bins at replenishment
	discarded uint64 // live credits dropped at replenishment (fakes off, or cap)
	fakeSpent uint64 // unused credits spent on fake releases
}

// Stats counts shaper activity.
type Stats struct {
	// ReleasedReal counts real transactions released.
	ReleasedReal uint64
	// ReleasedFake counts generated fake transactions.
	ReleasedFake uint64
	// DelayedCycles accumulates (release - arrival) over real
	// transactions: total shaping delay.
	DelayedCycles uint64
	// Replenishments counts completed windows.
	Replenishments uint64
	// UnusedSaved counts credits moved to the unused bins.
	UnusedSaved uint64
	// WarningsSent counts priority warnings to the memory controller
	// (response shaper only).
	WarningsSent uint64
	// Epochs and RateChanges track the Fletcher et al. epoch-rate mode:
	// leakage is bounded by Epochs x log2(number of rates).
	Epochs      uint64
	RateChanges uint64
}

func newBinCore(cfg Config, rng *sim.RNG) (*binCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &binCore{
		cfg:           cfg.Clone(),
		credits:       append([]int(nil), cfg.Credits...),
		unused:        make([]int, len(cfg.Credits)),
		nextReplenish: cfg.Window,
		nextSlot:      cfg.PeriodicInterval,
		curInterval:   cfg.PeriodicInterval,
		nextEpoch:     cfg.EpochLength,
		rng:           rng,
		reservedBin:   -1,
	}
	for _, c := range cfg.Credits {
		b.led.granted += uint64(c)
	}
	b.redrawJitter()
	if cfg.Policy == PolicyOblivious {
		b.drawRelease(0)
	}
	return b, nil
}

// drawRelease schedules the next oblivious release: a bin is drawn from
// the remaining credits (weighted by count) and consumed; the release
// point is the bin's inter-arrival time from now, jittered within the bin
// when RandomizeWithinBin is set. With no credits left, the draw is
// deferred to replenishment.
func (b *binCore) drawRelease(now sim.Cycle) {
	b.wakeGen++
	total := 0
	for _, c := range b.credits {
		total += c
	}
	if total == 0 {
		b.reservedBin = -1
		return
	}
	pick := 0
	if b.rng != nil {
		pick = b.rng.Intn(total)
	}
	bin := 0
	for i, c := range b.credits {
		if pick < c {
			bin = i
			break
		}
		pick -= c
	}
	b.credits[bin]--
	b.led.consumed++
	b.reservedBin = bin

	delay := b.cfg.Binning.Lower(bin)
	if delay == 0 {
		delay = 1
	}
	if b.cfg.RandomizeWithinBin && b.rng != nil {
		width := delay
		if bin < b.cfg.Binning.N()-1 {
			width = b.cfg.Binning.Upper(bin) - b.cfg.Binning.Lower(bin)
		}
		if width > 0 {
			delay += sim.Cycle(b.rng.Uint64n(uint64(width)))
		}
	}
	b.nextRelease = now + delay
}

// obliviousDue reports whether the scheduled release point has arrived.
func (b *binCore) obliviousDue(now sim.Cycle) bool {
	return b.reservedBin >= 0 && now >= b.nextRelease
}

// commitOblivious records an oblivious-mode release (real or fake) and
// draws the next release point.
func (b *binCore) commitOblivious(now sim.Cycle, fake bool) {
	b.lastRelease = now
	b.released = true
	if fake {
		b.stats.ReleasedFake++
	} else {
		b.stats.ReleasedReal++
	}
	b.drawRelease(now)
}

// lapseOblivious abandons the reserved slot (nothing to send and fakes
// disabled) and draws the next release point.
func (b *binCore) lapseOblivious(now sim.Cycle) {
	b.stats.UnusedSaved++
	b.drawRelease(now)
}

// periodic reports whether the core runs in strict periodic (CS) mode.
func (b *binCore) periodic() bool { return b.cfg.PeriodicInterval > 0 }

// slotOpen reports whether a periodic release opportunity is open at now.
func (b *binCore) slotOpen(now sim.Cycle) bool { return now >= b.nextSlot }

// closeSlot advances the slot clock after a release (or a lapsed slot),
// never allowing catch-up bursts: the next opportunity is at least one
// full interval after the release.
func (b *binCore) closeSlot(now sim.Cycle) {
	b.nextSlot += b.curInterval
	if b.nextSlot <= now {
		b.nextSlot = now + b.curInterval
	}
}

// noteArrival counts a real arrival for epoch-rate demand estimation.
func (b *binCore) noteArrival() {
	if len(b.cfg.EpochRates) > 0 {
		b.epochArrivals++
	}
}

// maybeEpochSwitch re-selects the periodic rate at epoch boundaries
// (Fletcher et al.): the slowest rate in the set that can still serve the
// previous epoch's demand, or the fastest rate if none can. Each boundary
// leaks at most log2(len(rates)) bits, which Stats.Epochs bounds.
func (b *binCore) maybeEpochSwitch(now sim.Cycle) {
	if len(b.cfg.EpochRates) == 0 || now < b.nextEpoch {
		return
	}
	b.nextEpoch += b.cfg.EpochLength
	b.stats.Epochs++
	demand := b.epochArrivals
	b.epochArrivals = 0

	best := b.cfg.EpochRates[0]
	for _, r := range b.cfg.EpochRates {
		if r < best {
			best = r // fastest as the fallback
		}
	}
	var chosen sim.Cycle
	for _, r := range b.cfg.EpochRates {
		if uint64(b.cfg.EpochLength/r) >= demand && r > chosen {
			chosen = r
		}
	}
	if chosen == 0 {
		chosen = best
	}
	if chosen != b.curInterval {
		b.curInterval = chosen
		b.stats.RateChanges++
	}
}

// markReal records a real periodic-mode release at cycle now.
func (b *binCore) markReal(now sim.Cycle) {
	b.wakeGen++
	b.lastRelease = now
	b.released = true
	b.stats.ReleasedReal++
}

// markFake records a fake periodic-mode release at cycle now.
func (b *binCore) markFake(now sim.Cycle) {
	b.wakeGen++
	b.lastRelease = now
	b.released = true
	b.stats.ReleasedFake++
}

// maybeReplenish rolls the window if due and returns (replenished,
// unusedTotal): the total credits that went unused in the closing window,
// which the response shaper converts into a priority warning.
func (b *binCore) maybeReplenish(now sim.Cycle) (bool, int) {
	if now < b.nextReplenish {
		return false, 0
	}
	b.wakeGen++
	b.nextReplenish += b.cfg.Window
	unusedTotal := 0
	maxWindows := b.cfg.MaxUnusedWindows
	if maxWindows <= 0 {
		maxWindows = 1
	}
	for i := range b.credits {
		if b.credits[i] > 0 {
			unusedTotal += b.credits[i]
			if b.cfg.GenerateFake {
				before := b.unused[i]
				b.unused[i] += b.credits[i]
				if cap := b.cfg.Credits[i] * maxWindows; b.unused[i] > cap {
					b.unused[i] = cap
				}
				b.led.banked += uint64(b.unused[i] - before)
				b.led.discarded += uint64(b.credits[i] - (b.unused[i] - before))
			} else {
				b.led.discarded += uint64(b.credits[i])
			}
		}
		b.credits[i] = b.cfg.Credits[i]
		b.led.granted += uint64(b.cfg.Credits[i])
	}
	b.stats.Replenishments++
	b.stats.UnusedSaved += uint64(unusedTotal)
	if b.cfg.Policy == PolicyOblivious && b.reservedBin < 0 {
		b.drawRelease(now)
	}
	return true, unusedTotal
}

// nextWake returns the earliest cycle at which Tick could do something
// observable, given that no new traffic arrives in between (an arrival
// wakes the shaper through TrySend). pending reports whether a real
// transaction is queued for release.
//
// Every branch exploits the fact that the release predicates
// (releaseBin, fakeBin, slotOpen, obliviousDue) are pure functions of
// (state, cycle): the wake is the first cycle where one of them flips,
// clamped to the next clock edge (replenishment window, periodic slot,
// epoch boundary) whose handler mutates state when due. Returning
// early is always safe; returning a cycle past a true release
// opportunity would desynchronize fast-path and stepped runs.
func (b *binCore) nextWake(now sim.Cycle, pending bool) sim.Cycle {
	if b.periodic() {
		// A slot left open (downstream backpressure) retries every cycle.
		if b.nextSlot <= now {
			return now + 1
		}
		w := b.nextSlot
		if len(b.cfg.EpochRates) > 0 && b.nextEpoch < w {
			w = b.nextEpoch
		}
		if w <= now {
			return now + 1
		}
		return w
	}
	// Replenishment mutates credit state whenever it comes due; never
	// look past it.
	if b.nextReplenish <= now {
		return now + 1
	}
	limit := b.nextReplenish
	if b.cfg.Policy == PolicyOblivious {
		if b.reservedBin >= 0 {
			if b.nextRelease <= now {
				return now + 1 // due slot retrying against backpressure
			}
			if b.nextRelease < limit {
				return b.nextRelease
			}
		}
		return limit
	}
	// Credit mode: the first cycle whose release predicate admits a
	// transaction. releaseBin and fakeBin hold each verdict until its
	// memo's horizon (the next bin edge or jitter threshold), so the scan
	// steps from one horizon to the next instead of one cycle at a time.
	w := limit
	if pending {
		for c := now + 1; c < limit; c = b.realMemo.until {
			if _, ok := b.releaseBin(c); ok {
				w = c
				break
			}
		}
	} else if b.cfg.GenerateFake && b.unusedCredits() > 0 {
		for c := now + 1; c < limit; c = b.fakeMemo.until {
			if _, ok := b.fakeBin(c); ok {
				w = c
				break
			}
		}
	}
	return w
}

// creditMode reports whether releases wait on credit verdicts
// (releaseBin, fakeBin): neither strict periodic nor oblivious.
func (b *binCore) creditMode() bool {
	return !b.periodic() && b.cfg.Policy != PolicyOblivious
}

// verdict returns whether a real (fake false) or fake release at cycle c
// would be admitted, and the cycle until which that verdict holds while
// the credit state stays unchanged.
func (b *binCore) verdict(c sim.Cycle, fake bool) (bool, sim.Cycle) {
	if !fake {
		_, ok := b.releaseBin(c)
		return ok, b.realMemo.until
	}
	if !b.cfg.GenerateFake {
		return false, sim.Cycle(math.MaxUint64)
	}
	_, ok := b.fakeBin(c)
	return ok, b.fakeMemo.until
}

// admits counts the cycles in [lo, hi] whose verdict admits a release
// and returns the last of them (0 when n is 0), walking verdict
// intervals rather than cycles. The credit state must not change over
// the span: a parked shaper's refused Ticks commit nothing.
func (b *binCore) admits(lo, hi sim.Cycle, fake bool) (n uint64, last sim.Cycle) {
	for c := lo; c <= hi; {
		ok, until := b.verdict(c, fake)
		end := min(until-1, hi)
		if ok {
			n += uint64(end - c + 1)
			last = end
		}
		if end == hi {
			break
		}
		c = end + 1
	}
	return n, last
}

// interArrival returns the observed inter-arrival time if the shaper
// released at cycle now.
func (b *binCore) interArrival(now sim.Cycle) sim.Cycle {
	if !b.released {
		return 0
	}
	return now - b.lastRelease
}

// horizonFor returns the first cycle at which a verdict derived from the
// current inter-arrival time could change: the raw bin's upper edge and,
// with RandomizeWithinBin, the not-yet-reached within-bin jitter
// threshold. Credit-state changes are versioned separately by wakeGen.
func (b *binCore) horizonFor(rawBin int, dt sim.Cycle) sim.Cycle {
	until := sim.Cycle(math.MaxUint64)
	if upper := b.cfg.Binning.Upper(rawBin); upper != math.MaxUint64 {
		until = b.lastRelease + upper
	}
	if b.cfg.RandomizeWithinBin {
		lower := b.cfg.Binning.Lower(rawBin)
		var width sim.Cycle
		if rawBin == b.cfg.Binning.N()-1 {
			width = lower
		} else {
			width = b.cfg.Binning.Upper(rawBin) - lower
		}
		need := lower + sim.Cycle(b.jitterFrac*float64(width))
		if dt < need {
			if t := b.lastRelease + need; t < until {
				until = t
			}
		}
	}
	return until
}

// releaseBin returns the bin a release at cycle now would consume from,
// and whether a credit is available, per the configured policy. The
// verdict is memoized across cycles: it is a pure function of the credit
// state (wakeGen) and the inter-arrival bin, so the busy loop's
// per-cycle query is a cache read until a credit changes hands or the
// gap crosses a bin edge.
func (b *binCore) releaseBin(now sim.Cycle) (int, bool) {
	if m := &b.realMemo; m.gen == b.wakeGen && now >= m.from && now < m.until {
		return m.bin, m.ok
	}
	bin, ok, until := b.releaseBinSlow(now)
	b.realMemo = releaseMemo{gen: b.wakeGen, from: now, until: until, bin: bin, ok: ok}
	return bin, ok
}

func (b *binCore) releaseBinSlow(now sim.Cycle) (int, bool, sim.Cycle) {
	if !b.released {
		// The first release has no inter-arrival time; any credited bin
		// admits it (lowest first so cheap credits go first). The verdict
		// does not depend on now at all.
		for i, c := range b.credits {
			if c > 0 {
				return i, true, sim.Cycle(math.MaxUint64)
			}
		}
		return 0, false, sim.Cycle(math.MaxUint64)
	}
	dt := b.interArrival(now)
	bin := b.cfg.Binning.Bin(dt)
	until := b.horizonFor(bin, dt)
	switch b.cfg.Policy {
	case PolicyAtMost:
		for i := bin; i >= 0; i-- {
			if b.credits[i] > 0 {
				return i, true, until
			}
		}
		return 0, false, until
	default: // PolicyExact
		if b.credits[bin] > 0 {
			if b.cfg.RandomizeWithinBin && !b.jitterSatisfied(dt, bin) {
				return 0, false, until
			}
			return bin, true, until
		}
		// Overflow release: if the observed inter-arrival has already
		// passed every credited bin, further waiting cannot produce a
		// match until replenishment — the paper's "delayed ... until
		// credits have been replenished". Release from the highest
		// credited bin; the observed time still lands in a higher bin,
		// a bounded distortion that fake traffic makes rare.
		for i := len(b.credits) - 1; i > bin; i-- {
			if b.credits[i] > 0 {
				return 0, false, until // a higher credited bin exists: keep waiting
			}
		}
		for i := bin - 1; i >= 0; i-- {
			if b.credits[i] > 0 {
				return i, true, until
			}
		}
		return 0, false, until
	}
}

// fakeBin returns the unused-credit bin a fake release at cycle now would
// consume from, and whether one is available. Fake traffic always matches
// its bin exactly: it exists to complete the distribution. Like
// releaseBin, the verdict is memoized until the credit state or the
// inter-arrival bin changes.
func (b *binCore) fakeBin(now sim.Cycle) (int, bool) {
	if !b.cfg.GenerateFake {
		return 0, false
	}
	if m := &b.fakeMemo; m.gen == b.wakeGen && now >= m.from && now < m.until {
		return m.bin, m.ok
	}
	bin, ok, until := b.fakeBinSlow(now)
	b.fakeMemo = releaseMemo{gen: b.wakeGen, from: now, until: until, bin: bin, ok: ok}
	return bin, ok
}

func (b *binCore) fakeBinSlow(now sim.Cycle) (int, bool, sim.Cycle) {
	if !b.released {
		for i, u := range b.unused {
			if u > 0 {
				return i, true, sim.Cycle(math.MaxUint64)
			}
		}
		return 0, false, sim.Cycle(math.MaxUint64)
	}
	dt := b.interArrival(now)
	bin := b.cfg.Binning.Bin(dt)
	until := b.horizonFor(bin, dt)
	if b.unused[bin] > 0 {
		if b.cfg.RandomizeWithinBin && !b.jitterSatisfied(dt, bin) {
			return 0, false, until
		}
		return bin, true, until
	}
	// Overflow: once the gap has passed every unused-credit bin, emit from
	// the highest one so the generator restarts after idle stretches (the
	// subsequent fakes then walk their exact bins again).
	for i := len(b.unused) - 1; i > bin; i-- {
		if b.unused[i] > 0 {
			return 0, false, until
		}
	}
	for i := bin - 1; i >= 0; i-- {
		if b.unused[i] > 0 {
			return i, true, until
		}
	}
	return 0, false, until
}

// jitterSatisfied reports whether the randomized extra delay for the
// current release has elapsed: the release must sit at least jitterFrac of
// the way into its bin. The open-ended last bin uses its lower edge as
// width.
func (b *binCore) jitterSatisfied(dt sim.Cycle, bin int) bool {
	lower := b.cfg.Binning.Lower(bin)
	var width sim.Cycle
	if bin == b.cfg.Binning.N()-1 {
		width = lower
	} else {
		width = b.cfg.Binning.Upper(bin) - lower
	}
	need := lower + sim.Cycle(b.jitterFrac*float64(width))
	return dt >= need
}

// redrawJitter samples the next release's within-bin delay fraction.
func (b *binCore) redrawJitter() {
	if b.cfg.RandomizeWithinBin && b.rng != nil {
		b.jitterFrac = b.rng.Float64()
	}
}

// commitReal records a real release at cycle now consuming bin.
func (b *binCore) commitReal(now sim.Cycle, bin int) {
	b.wakeGen++
	b.credits[bin]--
	b.led.consumed++
	b.lastRelease = now
	b.released = true
	b.stats.ReleasedReal++
	b.redrawJitter()
}

// commitFake records a fake release at cycle now consuming unused bin.
func (b *binCore) commitFake(now sim.Cycle, bin int) {
	b.wakeGen++
	b.unused[bin]--
	b.led.fakeSpent++
	b.lastRelease = now
	b.released = true
	b.stats.ReleasedFake++
	b.redrawJitter()
}

// checkConservation verifies the credit ledger invariants. Strict periodic
// mode bypasses the credit machinery entirely, so there is nothing to
// check there.
func (b *binCore) checkConservation() error {
	if b.periodic() {
		return nil
	}
	var live, pending uint64
	for _, c := range b.credits {
		if c < 0 {
			return fmt.Errorf("shaper: negative live credits (%d)", c)
		}
		live += uint64(c)
	}
	for _, u := range b.unused {
		if u < 0 {
			return fmt.Errorf("shaper: negative unused credits (%d)", u)
		}
		pending += uint64(u)
	}
	l := b.led
	if got := l.consumed + l.banked + l.discarded + live; got != l.granted {
		return fmt.Errorf("shaper: credit conservation broken: granted %d != consumed %d + banked %d + discarded %d + live %d",
			l.granted, l.consumed, l.banked, l.discarded, live)
	}
	if got := l.fakeSpent + pending; got != l.banked {
		return fmt.Errorf("shaper: unused-credit conservation broken: banked %d != fake-spent %d + pending %d",
			l.banked, l.fakeSpent, pending)
	}
	return nil
}

// liveCredits returns the total live credits across all bins.
func (b *binCore) liveCredits() int {
	n := 0
	for _, c := range b.credits {
		n += c
	}
	return n
}

// unusedCredits returns the total banked (fake-generator) credits.
func (b *binCore) unusedCredits() int {
	n := 0
	for _, u := range b.unused {
		n += u
	}
	return n
}

// targetPMF returns the release distribution the shaper is configured to
// emit: the normalized credit vector, or — in strict periodic mode,
// which has no credits — unit mass on the bin holding the active
// interval. This is the reference the drift gauge measures against.
func (b *binCore) targetPMF() []float64 {
	p := make([]float64, b.cfg.Binning.N())
	if b.periodic() {
		p[b.cfg.Binning.Bin(b.curInterval)] = 1
		return p
	}
	total := 0
	for _, c := range b.cfg.Credits {
		total += c
	}
	if total == 0 {
		return p
	}
	for i, c := range b.cfg.Credits {
		p[i] = float64(c) / float64(total)
	}
	return p
}

// distributionDrift returns the L1 distance between the emitted
// distribution recorded by shaped and the core's target PMF, or 0 before
// the first release (an empty recorder normalizes to uniform, which
// would read as spurious drift).
func distributionDrift(shaped *stats.InterArrivalRecorder, b *binCore) float64 {
	if shaped.Hist.Total() == 0 {
		return 0
	}
	emitted := shaped.Hist.PMF()
	target := b.targetPMF()
	var d float64
	for i := range emitted {
		d += math.Abs(emitted[i] - target[i])
	}
	return d
}

// creditsLeft returns the live credits in bin i (for tests).
func (b *binCore) creditsLeft(i int) int { return b.credits[i] }

// unusedLeft returns the unused credits in bin i (for tests).
func (b *binCore) unusedLeft(i int) int { return b.unused[i] }
