// Package mem defines the memory transaction types and port/queue plumbing
// shared by the whole simulated memory path: core → request shaper → NoC →
// memory controller → DRAM → controller egress → response shaper → NoC →
// core. Keeping these types in one leaf package lets every substrate
// (cache, noc, memctrl, dram, shaper) interoperate without import cycles.
package mem

import (
	"fmt"

	"camouflage/internal/sim"
)

// Op is the kind of memory transaction.
type Op uint8

// Transaction kinds.
const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// LineSize is the cache-line (and memory burst) size in bytes. The paper's
// configuration uses 64-byte blocks end to end.
const LineSize = 64

// Request is one memory transaction travelling from a core toward DRAM and,
// once serviced, back again as its own response. A single allocation is
// reused for the round trip; the timestamp fields record when it crossed
// each attack-relevant point (the shared channels SC1–SC5 of the paper's
// Figure 5), which is what the statistics taps and the adversary observe.
type Request struct {
	// ID is unique per run and increases in creation order.
	ID uint64
	// Core is the issuing core's index; fake traffic carries the index of
	// the shaper's core so it is indistinguishable on the bus.
	Core int
	// Addr is the physical line-aligned address.
	Addr uint64
	// Op is Read or Write.
	Op Op
	// Fake marks shaper-generated camouflage traffic. Fake requests are
	// real DRAM accesses to random addresses but complete into nothing:
	// no MSHR waits on them. Fake responses likewise terminate at the
	// response tap.
	Fake bool
	// Blocking marks a load the core cannot advance past until the
	// response returns (a dependent load in the instruction window).
	Blocking bool

	// Timestamps, in kernel cycles, zero until reached.
	CreatedAt   sim.Cycle // core issued the miss (intrinsic timing)
	ShapedAt    sim.Cycle // released by the request shaper (bus-visible)
	ArrivedMC   sim.Cycle // entered the memory controller queue
	IssuedDRAM  sim.Cycle // DRAM command stream began
	ReadyAt     sim.Cycle // data available at controller egress
	RespShaped  sim.Cycle // released by the response shaper
	DeliveredAt sim.Cycle // response arrived back at the core

	// Dec caches the DRAM address decode for this request. Addr and Core
	// are immutable after creation, so the first decode holds for the
	// whole round trip — the routing NoC and every scheduler query reuse
	// it instead of re-slicing address bits. Derived, never serialized:
	// checkpoint restore and pool recycling both clear it.
	Dec DecodedAddr

	// pooled marks a request currently resting in a Pool free list. It
	// exists only to make double-release detectable (Pool.Put refuses and
	// counts) and is never serialized.
	pooled bool
}

// DecodedAddr is the cached result of dram.AddrMap.Decode. It mirrors the
// decoder's location fields here in the leaf package (dram imports mem,
// not the reverse). OK distinguishes "not yet decoded" from a real decode.
type DecodedAddr struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
	Col     uint64
	OK      bool
}

// Latency returns the core-observed round-trip latency. It is only
// meaningful after delivery.
func (r *Request) Latency() sim.Cycle {
	if r.DeliveredAt < r.CreatedAt {
		return 0
	}
	return r.DeliveredAt - r.CreatedAt
}

// ReqPort is the downstream-facing handoff for requests. TrySend returns
// false when the receiver cannot accept the request this cycle; the sender
// must retry (this is the backpressure that turns shaper throttling into
// core stalls).
type ReqPort interface {
	TrySend(now sim.Cycle, req *Request) bool
}

// RespPort is the upstream-facing handoff for responses.
type RespPort interface {
	TrySend(now sim.Cycle, resp *Request) bool
}

// Queue is a bounded FIFO of requests used as the buffering element between
// pipeline stages. A zero capacity means unbounded. Storage is a ring:
// steady-state push/pop reuses the same backing array instead of walking
// an append-and-reslice slice down memory, so the busy loop allocates
// nothing once the ring has grown to its working size.
type Queue struct {
	buf   []*Request // ring storage, len(buf) is the ring size
	head  int        // index of the oldest element
	count int
	cap   int // admission bound; 0 means unbounded
	// wake arms the queue's consumer when TrySend enqueues; space arms
	// its sender when a Pop frees a slot in the full queue (see
	// sim.WakeHandle.Arm). The zero handles do nothing.
	wake, space sim.WakeHandle
}

// NewQueue returns a queue holding at most capacity requests; capacity 0
// means unbounded.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// SetWake installs the handle TrySend arms when it enqueues: the
// consumer's slot in the kernel schedule. The consumer is armed, not
// woken, so its Skip must not read the queue: the skipped span is
// folded after the push.
func (q *Queue) SetWake(w sim.WakeHandle) { q.wake = w }

// SetSpaceWake installs the handle Pop arms when it frees a slot in the
// full queue: the slot of a sender that parks while the queue refuses
// it. Popping changes nothing in the sender, so the handle is armed
// (sim.WakeHandle.Arm), not woken.
func (q *Queue) SetSpaceWake(w sim.WakeHandle) { q.space = w }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return q.count }

// Full reports whether the queue cannot accept another request.
func (q *Queue) Full() bool { return q.cap > 0 && q.count >= q.cap }

// grow linearizes the ring into a larger array.
func (q *Queue) grow() {
	n := 2 * len(q.buf)
	if n < 8 {
		n = 8
	}
	buf := make([]*Request, n)
	for i := 0; i < q.count; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		buf[i] = q.buf[j]
	}
	q.buf = buf
	q.head = 0
}

// Push appends req and reports whether it fit.
func (q *Queue) Push(req *Request) bool {
	if q.Full() {
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	i := q.head + q.count
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = req
	q.count++
	return true
}

// Peek returns the oldest request without removing it, or nil if empty.
func (q *Queue) Peek() *Request {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest request, or nil if empty.
func (q *Queue) Pop() *Request {
	if q.count == 0 {
		return nil
	}
	if q.count == q.cap {
		q.space.Arm()
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	return r
}

// ForEach visits every queued request oldest-first.
func (q *Queue) ForEach(fn func(*Request)) {
	for i := 0; i < q.count; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		fn(q.buf[j])
	}
}

// TrySend implements ReqPort and RespPort by enqueueing and arming the
// consumer.
func (q *Queue) TrySend(_ sim.Cycle, req *Request) bool {
	if q.Full() {
		return false
	}
	q.wake.Arm()
	return q.Push(req)
}

// DelayPipe models a fixed-latency conduit (a NoC hop, a wire). Items
// pushed at cycle t become visible at t+latency and drain in FIFO order
// with backpressure: if the consumer does not pop, items stay. Like
// Queue, storage is a ring so steady-state traffic allocates nothing.
type DelayPipe struct {
	latency sim.Cycle
	items   []pipeItem // ring storage
	head    int
	count   int
}

type pipeItem struct {
	ready sim.Cycle
	req   *Request
}

// NewDelayPipe returns a pipe with the given latency in cycles.
func NewDelayPipe(latency sim.Cycle) *DelayPipe {
	return &DelayPipe{latency: latency}
}

func (p *DelayPipe) grow() {
	n := 2 * len(p.items)
	if n < 8 {
		n = 8
	}
	items := make([]pipeItem, n)
	for i := 0; i < p.count; i++ {
		j := p.head + i
		if j >= len(p.items) {
			j -= len(p.items)
		}
		items[i] = p.items[j]
	}
	p.items = items
	p.head = 0
}

func (p *DelayPipe) push(it pipeItem) {
	if p.count == len(p.items) {
		p.grow()
	}
	i := p.head + p.count
	if i >= len(p.items) {
		i -= len(p.items)
	}
	p.items[i] = it
	p.count++
}

// Push inserts req at cycle now; it becomes poppable at now+latency.
func (p *DelayPipe) Push(now sim.Cycle, req *Request) {
	p.push(pipeItem{ready: now + p.latency, req: req})
}

// PushAfter inserts req with extra cycles of latency on top of the pipe's
// own. The pipe stays FIFO: items behind a delayed one wait for it (the
// fault injector uses this to model a stalled flit holding the channel).
func (p *DelayPipe) PushAfter(now, extra sim.Cycle, req *Request) {
	p.push(pipeItem{ready: now + p.latency + extra, req: req})
}

// Len returns the number of in-flight items.
func (p *DelayPipe) Len() int { return p.count }

// NextReady returns the cycle at which the oldest in-flight item
// matures, and whether the pipe holds anything. The kernel's idle fast
// path uses it as a wake hint: an empty pipe has no self-driven future
// work.
func (p *DelayPipe) NextReady() (sim.Cycle, bool) {
	if p.count == 0 {
		return 0, false
	}
	return p.items[p.head].ready, true
}

// Ready returns the oldest item if it has matured by cycle now, else nil.
// The item is not removed.
func (p *DelayPipe) Ready(now sim.Cycle) *Request {
	if p.count == 0 || p.items[p.head].ready > now {
		return nil
	}
	return p.items[p.head].req
}

// Pop removes and returns the oldest matured item, or nil.
func (p *DelayPipe) Pop(now sim.Cycle) *Request {
	if p.Ready(now) == nil {
		return nil
	}
	r := p.items[p.head].req
	p.items[p.head] = pipeItem{}
	p.head++
	if p.head == len(p.items) {
		p.head = 0
	}
	p.count--
	return r
}

// ForEach visits every in-flight request oldest-first.
func (p *DelayPipe) ForEach(fn func(*Request)) {
	for i := 0; i < p.count; i++ {
		j := p.head + i
		if j >= len(p.items) {
			j -= len(p.items)
		}
		fn(p.items[j].req)
	}
}
