package sim

import (
	"cmp"
	"slices"

	"rica/internal/checkpoint"
)

// Capture writes the kernel's checkpoint section (KERN) to e: the clock,
// the identity counters and the live schedule in dispatch order. A
// handler is a Go function value and is not written; each event is named
// by its (at, seq) place and, on the closure-free path, its two
// arguments (closure events write false and zeros), which is what two
// kernels must agree on to hold one schedule. Lazily-cancelled entries
// still physically queued are left out: when the queue drops them is
// housekeeping, not simulation state. A strict read — nothing moves —
// safe only between dispatches.
func (k *Kernel) Capture(e *checkpoint.Enc) {
	live := make([]entry, 0, k.live)
	for _, en := range k.queue {
		if !k.recs[en.id].cancelled {
			live = append(live, en)
		}
	}
	slices.SortFunc(live, func(a, b entry) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e.Dur(k.now)
	e.U64(k.seq)
	e.U64(k.executed)
	e.Int(k.live)
	e.Int(len(live))
	for _, en := range live {
		ev := k.recs[en.id]
		e.Dur(en.at)
		e.U64(en.seq)
		e.Bool(ev.afn != nil)
		e.Int(ev.a0)
		e.Int(ev.a1)
	}
}
