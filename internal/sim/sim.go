// Package sim provides the discrete-event simulation kernel used by every
// other subsystem in this repository: a virtual clock, a cancellable timer
// facility backed by one binary heap, and deterministic per-component
// random number streams.
//
// The kernel is strictly single-goroutine: all events execute sequentially
// in non-decreasing virtual-time order, with FIFO ordering among events
// scheduled for the same instant. Determinism is a design requirement —
// two runs with the same seed must produce bit-identical results — so the
// kernel never consults wall-clock time or global randomness.
//
// The kernel is also allocation-free in the steady state: event records
// are pooled and recycled under generation counters (see DESIGN.md §8),
// and the ScheduleArg fast path carries two integer arguments instead of
// a captured closure, so a million-event run costs the garbage collector
// nothing beyond the layers' own packet traffic.
package sim

import (
	"fmt"
	"time"

	"rica/internal/obs"
)

// Handler is a callback invoked when a scheduled event fires. The argument
// is the virtual time at which the event fires, which equals Kernel.Now()
// during the call.
type Handler func(now time.Duration)

// ArgHandler is the closure-free flavour of Handler: the two integers
// given to ScheduleArg are passed back verbatim, so hot paths can index a
// state arena instead of capturing variables (each capture is a heap
// allocation per event). Store the bound method value once — building it
// at every call site would reintroduce the allocation.
type ArgHandler func(now time.Duration, a0, a1 int)

// compactMin is the queue size below which cancelled-event compaction is
// not worth the sweep.
const compactMin = 128

// Kernel is a discrete-event scheduler. The zero value is ready to use.
//
// Virtual time is expressed as a time.Duration offset from the beginning of
// the simulation (t = 0). Using time.Duration rather than float64 seconds
// keeps event ordering exact: there is no floating-point fuzz around
// simultaneity, and ties are broken by scheduling order.
type Kernel struct {
	queue entryHeap
	now   time.Duration
	seq   uint64

	// stop, once closed, ends Run at the next instant boundary (see
	// SetStop). Nil never stops.
	stop <-chan struct{}

	// live counts scheduled events that have neither fired nor been
	// cancelled; len(queue) − live is the lazily-cancelled backlog.
	live int

	// recs holds every event record the kernel has made, indexed by the
	// record's id: queue entries and the free list name records by id.
	// free is the recycling pool; fresh records come from chunk, a bump
	// arena refilled eventChunk records at a time.
	recs      []*event
	free      []uint32
	chunk     []event
	chunkUsed int

	// executed counts events dispatched since construction; useful for
	// progress accounting and for benchmarks.
	executed uint64

	// obs, when set, receives dispatch/schedule/cancel counters and the
	// simulation clock, and is published every publishEvery dispatches
	// and whenever Run returns. All obs methods are nil-safe, so the
	// zero-value kernel stays ready to use.
	obs *obs.Registry
}

// publishEvery is how many dispatches pass between two publications of
// the registry to its live readers (obs.Registry.Publish): a live view is
// at most publishEvery-1 events behind a running kernel. It is a power
// of two, so the test is a mask.
const publishEvery = 1024

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// SetObs wires the observability registry. Call before Run; the kernel
// works identically (and counts nothing) without one.
func (k *Kernel) SetObs(r *obs.Registry) { k.obs = r }

// SetStop wires the channel whose closing ends Run early. The kernel
// reads it only when the clock is about to move to a new instant, so a
// stopped Run has dispatched every event at or before Now() and none
// after: the instant boundary a checkpoint capture needs. A nil channel
// never stops.
func (k *Kernel) SetStop(stop <-chan struct{}) { k.stop = stop }

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending reports how many live (non-cancelled, not yet fired) events are
// queued. Lazily-cancelled entries awaiting compaction are not counted.
func (k *Kernel) Pending() int { return k.live }

// eventChunk is how many event records one arena refill carves at once.
// Chunking trades one allocation per record for one per chunk: a fresh
// kernel warming up to a thousand in-flight events pays ~16 allocations
// instead of ~1000, and the records of a chunk sit contiguously, which
// the dispatch loop's access pattern rewards.
const eventChunk = 64

// alloc takes an event from the recycle pool, falling back to a bump
// allocation out of the current chunk (carving a fresh chunk when that
// is spent). Records never leave the kernel, so chunks live exactly as
// long as it does.
func (k *Kernel) alloc() *event {
	n := len(k.free)
	if n == 0 {
		if k.chunkUsed == len(k.chunk) {
			k.chunk = make([]event, eventChunk)
			k.chunkUsed = 0
		}
		ev := &k.chunk[k.chunkUsed]
		k.chunkUsed++
		ev.id = uint32(len(k.recs))
		k.recs = append(k.recs, ev)
		return ev
	}
	ev := k.recs[k.free[n-1]]
	k.free = k.free[:n-1]
	if !ev.pooled {
		panic("sim: event pool corruption (free-list entry not marked pooled)")
	}
	ev.pooled = false
	return ev
}

// release recycles a fired or compacted event. The generation bump makes
// every outstanding Timer handle for this record stale, so a late Cancel
// cannot touch whatever event reuses the slot. Releasing twice panics:
// a double free would put the same record in the pool twice and hand it
// to two different Schedule calls.
func (k *Kernel) release(ev *event) {
	if ev.pooled {
		panic("sim: event double-free")
	}
	ev.pooled = true
	ev.gen++
	ev.cancelled = false
	ev.fn = nil
	ev.afn = nil
	k.free = append(k.free, ev.id)
}

// Schedule arranges for h to run delay after the current virtual time and
// returns a handle that can cancel it. A negative delay is treated as zero:
// the event fires at the current time, after all previously scheduled
// events for that time.
func (k *Kernel) Schedule(delay time.Duration, h Handler) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, h)
}

// At arranges for h to run at absolute virtual time t. Scheduling in the
// past is an error in the caller; the kernel clamps it to "now" rather than
// corrupting clock monotonicity.
func (k *Kernel) At(t time.Duration, h Handler) Timer {
	if h == nil {
		panic("sim: At called with nil handler")
	}
	ev := k.enqueue(t)
	ev.fn = h
	return Timer{k: k, ev: ev, gen: ev.gen, at: ev.at}
}

// ScheduleArg is the allocation-free scheduling fast path: fn runs delay
// after the current time with a0 and a1 passed back verbatim. Unlike
// Schedule there is no closure to allocate — the event record itself is
// pooled — so per-packet timers (MAC backoff, airtime completion, ACK
// waits) ride this path at zero steady-state allocation.
func (k *Kernel) ScheduleArg(delay time.Duration, fn ArgHandler, a0, a1 int) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.AtArg(k.now+delay, fn, a0, a1)
}

// AtArg is ScheduleArg with an absolute deadline; see At for clamping.
func (k *Kernel) AtArg(t time.Duration, fn ArgHandler, a0, a1 int) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil handler")
	}
	ev := k.enqueue(t)
	ev.afn = fn
	ev.a0 = a0
	ev.a1 = a1
	return Timer{k: k, ev: ev, gen: ev.gen, at: ev.at}
}

// enqueue files a fresh event for time t (clamped to now) with the next
// sequence number; the caller fills in the handler.
func (k *Kernel) enqueue(t time.Duration) *event {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc()
	ev.at = t
	ev.seq = k.seq
	k.seq++
	k.live++
	k.obs.Inc(obs.CEventsScheduled)
	k.obs.GaugeAdd(obs.GQueueDepth, 1)
	k.queue.push(entry{at: t, seq: ev.seq, id: ev.id})
	return ev
}

// peek returns the earliest live event, leaving it queued, or nil when
// none remain. Cancelled entries are recycled as they surface as the
// queue's minimum — never before, so nothing here searches the heap.
func (k *Kernel) peek() *event {
	for len(k.queue) > 0 {
		ev := k.recs[k.queue[0].id]
		if !ev.cancelled {
			return ev
		}
		k.queue.pop()
		k.release(ev)
	}
	return nil
}

// Step dispatches the single earliest pending event. It reports false when
// no live events remain.
func (k *Kernel) Step() bool {
	ev := k.peek()
	if ev == nil {
		return false
	}
	k.queue.pop()
	k.dispatch(ev)
	return true
}

// dispatch advances the clock to ev, recycles the record, and runs the
// handler. The event is released before the handler runs: its generation
// is already bumped, so a handler cancelling its own timer is a no-op (the
// same outcome the pre-pool kernel gave), and the record is immediately
// available for the handler's own scheduling.
func (k *Kernel) dispatch(ev *event) {
	if ev.at < k.now {
		// Queue corruption or clock tampering; fail loudly because a
		// silently non-monotonic clock invalidates every metric.
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", k.now, ev.at))
	}
	k.now = ev.at
	k.executed++
	k.live--
	k.obs.Inc(obs.CEventsDispatched)
	k.obs.GaugeAdd(obs.GQueueDepth, -1)
	k.obs.SetSimNow(k.now)
	if k.executed%publishEvery == 0 {
		k.obs.Publish()
	}
	fn, afn, a0, a1 := ev.fn, ev.afn, ev.a0, ev.a1
	k.release(ev)
	if fn != nil {
		fn(k.now)
		return
	}
	afn(k.now, a0, a1)
}

// Run dispatches events until the queue drains or the virtual clock
// passes until, and reports true; events scheduled exactly at until still
// run, and the clock then reads until. It reports false when the stop
// channel (SetStop) was found closed on the way: the clock stays at the
// instant whose events have all dispatched, and the rest stay queued for
// a later Run. A horizon behind the clock is a no-op: the clock never
// moves backwards, and nothing else is touched. However it returns, Run
// publishes the registry, so a live view is exact between two Runs.
func (k *Kernel) Run(until time.Duration) bool {
	defer k.obs.Publish()
	if until < k.now {
		return true
	}
	for {
		ev := k.peek()
		if ev == nil || ev.at > until {
			break
		}
		if ev.at > k.now && k.stopRequested() {
			return false
		}
		k.queue.pop()
		k.dispatch(ev)
	}
	k.now = until
	return true
}

// stopRequested polls the stop channel without blocking.
func (k *Kernel) stopRequested() bool {
	if k.stop == nil {
		return false
	}
	select {
	case <-k.stop:
		return true
	default:
		return false
	}
}

// RunAll dispatches events until the queue drains; it reads no stop
// channel. Intended for small tests; production runs bound time with Run.
func (k *Kernel) RunAll() {
	for k.Step() {
	}
}

// noteCancel maintains the live count and compacts the queue when lazily
// cancelled entries dominate it — without this, a cancel-heavy CSMA
// retransmission load grows Pending and memory without bound.
func (k *Kernel) noteCancel() {
	k.live--
	k.obs.Inc(obs.CTimersCancelled)
	k.obs.GaugeAdd(obs.GQueueDepth, -1)
	if queued := len(k.queue); queued >= compactMin && queued-k.live > queued/2 {
		k.obs.Inc(obs.CQueueCompactions)
		k.queue.dropCancelled(k.recs, k.release)
	}
}

// Timer is a handle to a scheduled event. It is a value: copying it is
// cheap and allocation-free. The handle remembers the event record's
// generation, so once the event fires (and the record is recycled) the
// handle goes stale and Cancel degrades to a no-op.
type Timer struct {
	k         *Kernel
	ev        *event
	gen       uint32
	at        time.Duration
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. Cancel is idempotent.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil || t.cancelled {
		return
	}
	t.cancelled = true
	if t.ev.gen != t.gen || t.ev.cancelled {
		// Stale (the event already fired and was recycled) or already
		// cancelled through another copy of this handle: the live count
		// was settled the first time.
		return
	}
	t.ev.cancelled = true
	t.k.noteCancel()
}

// Cancelled reports whether Cancel has been called through this handle.
func (t *Timer) Cancelled() bool { return t != nil && t.cancelled }

// When reports the virtual time the event is (or was) scheduled to fire.
// Like Cancel and Cancelled, it is nil-safe: a nil or zero timer reports
// zero rather than panicking.
func (t *Timer) When() time.Duration {
	if t == nil {
		return 0
	}
	return t.at
}
