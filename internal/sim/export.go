package sim

import (
	"cmp"
	"slices"
	"time"
)

// This file is the kernel's checkpoint seam: read-only state exports
// used to build (and verify) simulation snapshots. Exports are pure
// observations — no counters move, no RNG draws, no cache fills — so
// capturing at an instant boundary cannot perturb the run.

// EventState is the serializable skeleton of one pending event. The
// handler itself is a Go function value and cannot be serialized; the
// skeleton pins the event's identity ((At, Seq) dispatch order) and the
// closure-free path's arguments, which is exactly what snapshot
// verification needs to prove two kernels hold the same schedule.
type EventState struct {
	At  time.Duration
	Seq uint64
	// Arg reports a closure-free (ScheduleArg) event; A0/A1 carry its
	// arguments. Closure events have Arg false and zero A0/A1.
	Arg    bool
	A0, A1 int
}

// KernelState is a read-only snapshot of the scheduler: the clock, the
// identity counters, and the live schedule sorted into dispatch order.
// Lazily-cancelled entries still physically queued are not part of it —
// when the queue drops them is housekeeping, not simulation state.
type KernelState struct {
	Now      time.Duration
	Seq      uint64
	Executed uint64
	Live     int
	Events   []EventState
}

// ExportState snapshots the kernel. Safe only between dispatches (never
// from inside a running handler's schedule churn).
func (k *Kernel) ExportState() KernelState {
	st := KernelState{
		Now:      k.now,
		Seq:      k.seq,
		Executed: k.executed,
		Live:     k.live,
		Events:   make([]EventState, 0, k.live),
	}
	k.queue.eachLive(func(ev *event) {
		st.Events = append(st.Events, EventState{
			At:  ev.at,
			Seq: ev.seq,
			Arg: ev.afn != nil,
			A0:  ev.a0,
			A1:  ev.a1,
		})
	})
	slices.SortFunc(st.Events, func(a, b EventState) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return st
}

// eachLive visits every queued event that has not been cancelled (both
// tiers) in arbitrary order.
func (q *eventQueue) eachLive(fn func(*event)) {
	visit := func(h entryHeap) {
		for _, e := range h {
			if !e.ev.cancelled {
				fn(e.ev)
			}
		}
	}
	for i := range q.slots {
		visit(q.slots[i])
	}
	visit(q.far)
}
