package sim

import "time"

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
	id        uint32 // the record's index in Kernel.recs
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
// heap's own contiguous array and nothing else. The record is named by
// its index in Kernel.recs, not by a pointer, so the array holds no
// pointers: a sift's stores carry no GC write barrier and a collection
// never scans the queue.
type entry struct {
	at  time.Duration
	seq uint64
	id  uint32
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

// entryHeap is the kernel's pending-event queue: a binary min-heap of
// entries over (at, seq). Hand-rolled (no container/heap interface
// indirection) because every scheduled event passes through it; sifts
// move a hole rather than swapping, one store per level.
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
// records (recs indexed by entry id) to recycle, and re-establishes the
// heap invariant over the survivors.
func (h *entryHeap) dropCancelled(recs []*event, recycle func(*event)) {
	s := *h
	keep := s[:0]
	for _, e := range s {
		if ev := recs[e.id]; ev.cancelled {
			recycle(ev)
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i, keep[i])
	}
	*h = keep
}
