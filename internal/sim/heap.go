package sim

import (
	"math/bits"
	"time"
)

// trailingZeros is bits.TrailingZeros64 under a local name (the bitmap
// scan reads better with it).
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// event is a single scheduled callback. Events are ordered by (at, seq):
// seq is a strictly increasing scheduling counter, so two events scheduled
// for the same instant fire in the order they were scheduled (FIFO).
// Cancellation is lazy: Timer.Cancel only sets the flag, which is O(1);
// the queued entry stays where it is and is recycled when it surfaces as
// the queue's minimum (or when a compaction sweeps it out).
//
// Events are pooled: once dispatched or compacted away they return to the
// kernel's free list and are reused by later Schedule calls, so the steady
// state allocates nothing. gen is bumped on every recycle; Timer handles
// remember the gen they were issued for, which turns a stale handle's
// Cancel into a harmless no-op instead of a use-after-free on whatever
// event happens to occupy the slot now. pooled flags free-list membership
// so a double release fails loudly.
type event struct {
	at        time.Duration
	seq       uint64
	gen       uint32
	cancelled bool
	pooled    bool

	// Exactly one of fn (closure path) and afn (argument fast path) is
	// set. afn avoids a per-event closure allocation: the two int
	// arguments index whatever per-layer state arena the caller keeps.
	fn  Handler
	afn ArgHandler
	a0  int
	a1  int
}

// entry is one queued event with its ordering key inline. Every
// comparison the queue makes reads the key off the entry itself, so
// ordering never dereferences an event record: a sift touches the
// bucket's own contiguous array and nothing else.
type entry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// less orders entries by (at, seq) — the kernel's total dispatch order.
// seq is unique, so the order is strict and a heap over it is FIFO among
// same-instant events by construction.
func (e entry) less(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// entryHeap is a binary min-heap of entries over (at, seq): every ladder
// bucket is one, and so is the far tier. Hand-rolled (no container/heap
// interface indirection) because every scheduled event passes through
// one; sifts move a hole rather than swapping, one store per level.
type entryHeap []entry

func (h *entryHeap) push(e entry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the least entry. The heap must be nonempty.
func (h *entryHeap) pop() entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = entry{} // drop the vacated cell's record reference
	s = s[:n]
	*h = s
	if n > 0 {
		s.down(0, last)
	}
	return top
}

// down sifts e into the subtree rooted at the hole i.
func (s entryHeap) down(i int, e entry) {
	n := len(s)
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && s[right].less(s[least]) {
			least = right
		}
		if !s[least].less(e) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = e
}

// dropCancelled filters cancelled entries out in place, handing their
// records to recycle, and re-establishes the heap invariant over the
// survivors. It reports how many entries went.
func (h *entryHeap) dropCancelled(recycle func(*event)) int {
	s := *h
	keep := s[:0]
	for _, e := range s {
		if e.ev.cancelled {
			recycle(e.ev)
			continue
		}
		keep = append(keep, e)
	}
	dropped := len(s) - len(keep)
	for i := len(keep); i < len(s); i++ {
		s[i] = entry{}
	}
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i, keep[i])
	}
	*h = keep
	return dropped
}

// Ladder-queue geometry. The near tier is a circular array of buckets
// each spanning 2^ladderShift nanoseconds; together the buckets cover a
// ~268 ms horizon in front of the clock, which comfortably holds the
// dense MAC band (backoff slots, control airtimes, ACK timeouts are all
// single-digit milliseconds). Events beyond the horizon wait in the far
// heap and migrate into buckets as the clock approaches them — so the
// far heap only ever sees the sparse far population (beacon intervals,
// CSI check periods), while the hot band sifts within its own
// millisecond: O(log k) in one window's occupancy, not in the queue's.
const (
	ladderShift   = 20 // bucket width 2^20 ns ≈ 1.05 ms
	ladderBuckets = 256
	ladderMask    = ladderBuckets - 1
)

// ladderWin maps an instant to its bucket window number.
func ladderWin(t time.Duration) int64 { return int64(t) >> ladderShift }

// eventQueue is the kernel's two-tier pending-event store.
type eventQueue struct {
	slots [ladderBuckets]entryHeap
	// busy is a bitmap of nonempty slots (bit k ↔ slots[k]): pop jumps
	// over runs of empty windows with a trailing-zeros scan instead of
	// probing them one by one — the dominant cost of sparse phases.
	busy [ladderBuckets / 64]uint64
	// slotCount is how many entries (live + cancelled) sit in slots.
	slotCount int
	// minWin is a lower bound on the window number of every slotted
	// entry; pop scans forward from it and tightens it as windows drain.
	minWin int64
	// horizon is the near tier's exclusive upper window bound: every
	// slotted entry's window is below it and every far entry's at or
	// above it, so the near tier's minimum is the queue's. It only grows
	// — with the clock, and past it when migration jumps an empty near
	// tier forward to the far minimum (after which a Run horizon can leave
	// the clock far behind the slotted events).
	horizon int64
	// far holds entries at or beyond the horizon.
	far entryHeap
}

// markBusy/clearBusy maintain the nonempty-slot bitmap.
func (q *eventQueue) markBusy(slot int64)  { q.busy[slot>>6] |= 1 << (slot & 63) }
func (q *eventQueue) clearBusy(slot int64) { q.busy[slot>>6] &^= 1 << (slot & 63) }

// nextBusyWin returns the smallest window w' ≥ w whose slot is nonempty,
// looking one lap ahead at most. The caller guarantees at least one slot
// is nonempty, so the circular scan finds one; whether the entries in it
// belong to w' or to a later lap is the caller's check.
func (q *eventQueue) nextBusyWin(w int64) int64 {
	slot := w & ladderMask
	word := slot >> 6
	// Mask off bits below the starting slot in its word.
	bits := q.busy[word] >> (slot & 63)
	if bits != 0 {
		return w + int64(trailingZeros(bits))
	}
	advanced := 64 - (slot & 63) // to the start of the next word
	for i := int64(1); i <= ladderBuckets/64; i++ {
		bits = q.busy[(word+i)&(ladderBuckets/64-1)]
		if bits != 0 {
			return w + advanced + 64*(i-1) + int64(trailingZeros(bits))
		}
	}
	return w // unreachable under the caller's nonempty guarantee
}

// size reports queued entries, cancelled ones included.
func (q *eventQueue) size() int { return q.slotCount + len(q.far) }

// reach moves the horizon up to a full ladder in front of the clock.
func (q *eventQueue) reach(now time.Duration) {
	if h := ladderWin(now) + ladderBuckets; h > q.horizon {
		q.horizon = h
	}
}

// push files ev under the current clock reading now.
func (q *eventQueue) push(ev *event, now time.Duration) {
	q.reach(now)
	e := entry{at: ev.at, seq: ev.seq, ev: ev}
	if w := ladderWin(ev.at); w < q.horizon {
		q.pushSlot(e, w)
		return
	}
	q.far.push(e)
}

// unpop puts back the event the last pop returned (Run met its horizon).
// Its window is below the queue's horizon by the fact that it was
// slotted, so it goes back into its bucket whatever the clock reads.
func (q *eventQueue) unpop(ev *event) {
	q.pushSlot(entry{at: ev.at, seq: ev.seq, ev: ev}, ladderWin(ev.at))
}

// slotInitCap seeds a bucket's first allocation. Growing a nil slice to
// useful size costs a ladder of tiny allocations (1, 2, 4, 8 capacities)
// per active window; starting at the dense-band's typical occupancy
// makes it one.
const slotInitCap = 8

func (q *eventQueue) pushSlot(e entry, w int64) {
	h := &q.slots[w&ladderMask]
	if *h == nil {
		*h = make(entryHeap, 0, slotInitCap)
	}
	h.push(e)
	q.markBusy(w & ladderMask)
	q.slotCount++
	if w < q.minWin || q.slotCount == 1 {
		q.minWin = w
	}
}

// pop removes and returns the earliest live event in (at, seq) order, or
// nil when none remain. A cancelled entry is handed to recycle when it
// surfaces as the queue's minimum — never before, so nothing here walks
// a bucket.
func (q *eventQueue) pop(now time.Duration, recycle func(*event)) *event {
	for {
		// Also after a cancelled entry emptied the near tier: the far tier
		// may hold work that now jumps into it.
		q.migrate(now)
		if q.slotCount == 0 {
			return nil
		}
		w := q.nextBusyWin(q.minWin)
		h := &q.slots[w&ladderMask]
		if ladderWin((*h)[0].at) != w {
			// The bucket's minimum belongs to a later lap (window
			// w+k·ladderBuckets maps to the same slot), so nothing of
			// window w is queued: w+1 is the next lower bound.
			q.minWin = w + 1
			continue
		}
		e := h.pop()
		if len(*h) == 0 {
			q.clearBusy(w & ladderMask)
		}
		q.slotCount--
		q.minWin = w
		if e.ev.cancelled {
			recycle(e.ev)
			continue
		}
		return e.ev
	}
}

// migrate pulls far entries that fall inside the bucket horizon into the
// near tier. When the near tier is empty the horizon jumps forward to the
// heap's minimum, so a sparse far-future schedule never strands events.
func (q *eventQueue) migrate(now time.Duration) {
	if len(q.far) == 0 {
		return
	}
	q.reach(now)
	for len(q.far) > 0 {
		topWin := ladderWin(q.far[0].at)
		if q.slotCount == 0 && topWin >= q.horizon {
			q.horizon = topWin + ladderBuckets
		}
		if topWin >= q.horizon {
			return
		}
		q.pushSlot(q.far.pop(), topWin)
	}
}

// compact removes every cancelled entry from both tiers, handing each
// record to recycle, and re-heapifies what it filtered.
func (q *eventQueue) compact(recycle func(*event)) {
	for i := range q.slots {
		h := &q.slots[i]
		if len(*h) == 0 {
			continue
		}
		q.slotCount -= h.dropCancelled(recycle)
		if len(*h) == 0 {
			q.clearBusy(int64(i))
		}
	}
	q.far.dropCancelled(recycle)
}
