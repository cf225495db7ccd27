package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// --- Event queue vs reference-sort ordering oracle -----------------------

// refEvent mirrors one scheduled event for the oracle.
type refEvent struct {
	at  time.Duration
	seq int
}

// ladderRef drives a kernel and a plain reference side by side. Every
// event scheduled through it is recorded under its (at, seq) key — seq is
// the scheduling order, which is the kernel's own as long as nothing
// schedules behind the harness's back — and check holds the dispatch log
// to the sorted reference: exactly the events not cancelled before they
// fired, in (at, seq) order.
type ladderRef struct {
	t      *testing.T
	k      *Kernel
	keys   []refEvent // by id
	timers []Timer
	dead   []bool // cancelled before firing
	fired  []bool
	got    []refEvent
}

func newLadderRef(t *testing.T) *ladderRef { return &ladderRef{t: t, k: NewKernel()} }

// after schedules an event delay from now and returns its id; then, when
// non-nil, runs inside the handler (to schedule or cancel mid-dispatch).
func (r *ladderRef) after(delay time.Duration, then func()) int {
	id := len(r.keys)
	r.keys = append(r.keys, refEvent{at: r.k.Now() + delay, seq: id})
	r.dead = append(r.dead, false)
	r.fired = append(r.fired, false)
	r.timers = append(r.timers, r.k.Schedule(delay, func(now time.Duration) {
		r.fired[id] = true
		r.got = append(r.got, refEvent{at: now, seq: id})
		if then != nil {
			then()
		}
	}))
	return id
}

// cancel cancels event id; cancelling one that already fired is the
// no-op the kernel promises, and the reference keeps it.
func (r *ladderRef) cancel(id int) {
	r.timers[id].Cancel()
	if !r.fired[id] {
		r.dead[id] = true
	}
}

// check drains the kernel and compares the log with the reference.
func (r *ladderRef) check(label string) {
	r.t.Helper()
	r.k.RunAll()
	expect := make([]refEvent, 0, len(r.keys))
	for id, key := range r.keys {
		if !r.dead[id] {
			expect = append(expect, key)
		}
	}
	sortRef(expect)
	if len(r.got) != len(expect) {
		r.t.Fatalf("%s: fired %d events, expected %d", label, len(r.got), len(expect))
	}
	for i := range r.got {
		if r.got[i] != expect[i] {
			r.t.Fatalf("%s: position %d fired (at=%v seq=%d), want (at=%v seq=%d)",
				label, i, r.got[i].at, r.got[i].seq, expect[i].at, expect[i].seq)
		}
	}
	if r.k.Pending() != 0 || len(r.k.queue) != 0 {
		r.t.Fatalf("%s: drained kernel reports %d pending, %d queued", label, r.k.Pending(), len(r.k.queue))
	}
}

// sortRef orders by (at, seq) — the kernel's contractual dispatch order.
func sortRef(evs []refEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
}

// The schedules below were written against a ring of 256 windows of
// 2^20 ns (≈ 1 ms) each, the queue the kernel had before it was one heap,
// and they still cluster at that grain: dense windows, ties inside one,
// two windows a whole ring apart. The kernel has no windows; these
// test-local constants keep the schedules as they were.
const (
	ladderShift   = 20
	ladderWidth   = time.Duration(1) << ladderShift
	ladderBuckets = 256
)

// ladderWin maps an instant to its window number.
func ladderWin(t time.Duration) int64 { return int64(t) >> ladderShift }

// TestLadderMatchesReferenceOrder drives the kernel with adversarial
// schedules and checks the dispatch order against the (at, seq) total
// order a plain sorted reference produces: the random mix first, then
// dense windows, ties, cancels at the minimum, and Run horizons.
func TestLadderMatchesReferenceOrder(t *testing.T) {
	// Dense same-instant bursts, far-future beacons that cross the bucket
	// horizon, chained scheduling from inside handlers, random cancels.
	t.Run("random mix", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := newLadderRef(t)
			// A mix of bands: sub-bucket delays, exact ties, multi-bucket,
			// and far beyond the ladder horizon (≥ 1 s with 1 ms buckets).
			bands := []time.Duration{
				0, time.Microsecond, 500 * time.Microsecond,
				3 * time.Millisecond, 200 * time.Millisecond,
				2 * time.Second, time.Minute,
			}
			var cancellable []int
			for i := 0; i < 300; i++ {
				d := bands[rng.Intn(len(bands))]
				if rng.Intn(2) == 0 {
					d += time.Duration(rng.Intn(1_000_000))
				}
				id := r.after(d, nil)
				if rng.Intn(4) == 0 {
					cancellable = append(cancellable, id)
				}
			}
			// Cancel a third of the cancellable timers before running.
			for _, id := range cancellable {
				if rng.Intn(3) == 0 {
					r.cancel(id)
				}
			}
			// Handlers occasionally schedule more work mid-run.
			r.after(time.Millisecond, func() {
				for i := 0; i < 20; i++ {
					r.after(time.Duration(rng.Intn(5_000_000)), nil)
				}
			})
			r.check(fmt.Sprintf("seed %d", seed))
		}
	})

	// Windows holding 16, 256 and 4,096 events: offsets with many exact
	// ties, scheduled in shuffled order over three adjacent windows, every
	// eighth handler pushing into the window being popped, and enough
	// cancels that a compaction re-heapifies full buckets mid-run.
	for _, per := range []int{16, 256, 4096} {
		per := per
		t.Run(fmt.Sprintf("dense window k=%d", per), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(per)))
			r := newLadderRef(t)
			delays := make([]time.Duration, 0, 3*per)
			for w := 0; w < 3; w++ {
				for i := 0; i < per; i++ {
					off := time.Duration(rng.Int63n(int64(ladderWidth)))
					if i%3 == 0 {
						off = off >> 16 << 16 // sixteen distinct instants: ties
					}
					delays = append(delays, 5*time.Millisecond+time.Duration(w)*ladderWidth+off)
				}
			}
			rng.Shuffle(len(delays), func(i, j int) { delays[i], delays[j] = delays[j], delays[i] })
			for i, d := range delays {
				var then func()
				if i%8 == 0 {
					then = func() { r.after(time.Duration(rng.Int63n(int64(ladderWidth/2))), nil) }
				}
				r.after(d, then)
			}
			for id := range delays {
				if rng.Intn(5) < 3 {
					r.cancel(id)
				}
			}
			r.check("dense")
		})
	}

	// Thousands of events at one instant fire FIFO by seq, including the
	// zero-delay ones their handlers add behind everything queued.
	t.Run("same instant", func(t *testing.T) {
		r := newLadderRef(t)
		for i := 0; i < 5000; i++ {
			var then func()
			if i%10 == 0 {
				then = func() { r.after(0, nil) }
			}
			r.after(7*time.Millisecond, then)
		}
		r.check("same instant")
	})

	// Cancels that land among the instants being drained, the queue's
	// current minimum included — it must be recycled when it surfaces,
	// not fired and not left to block the queue.
	t.Run("cancel in current window", func(t *testing.T) {
		r := newLadderRef(t)
		base := 3 * ladderWidth
		ids := make([]int, 256)
		for i := range ids {
			i := i
			var then func()
			switch i {
			case 0:
				then = func() { // ids[1] is now the bucket's minimum
					for _, j := range []int{1, 2, 100, 255} {
						r.cancel(ids[j])
					}
				}
			case 50:
				then = func() {
					r.cancel(ids[51]) // the minimum again
					r.cancel(ids[10]) // already fired: a no-op
				}
			case 254:
				then = func() { r.cancel(ids[254]) } // its own timer, mid-dispatch
			}
			ids[i] = r.after(base+time.Duration(i)*time.Microsecond, then)
		}
		r.check("cancel in current window")
	})

	// A queue whose front is nothing but cancelled entries recycles them
	// as they surface, and the far-future events behind them — seconds
	// and a minute out, two of them tied — then fire in order.
	t.Run("migration into an empty near tier", func(t *testing.T) {
		r := newLadderRef(t)
		for i := 1; i <= 5; i++ {
			r.cancel(r.after(time.Duration(i)*time.Millisecond, nil))
		}
		for _, d := range []time.Duration{time.Minute, time.Second, 2 * time.Second, time.Second, time.Second + time.Microsecond} {
			r.after(d, nil)
		}
		r.check("migration")
	})

	// Run meeting its horizon leaves the next event queued: it peeks and
	// does not pop. Events scheduled next land between the clock and the
	// events left queued, among them and behind them, and must still fire
	// in order.
	t.Run("horizon re-push", func(t *testing.T) {
		r := newLadderRef(t)
		for i := 0; i < 20; i++ {
			r.after(20*time.Second+time.Duration(i/2)*300*time.Microsecond, nil) // pairs of ties over three windows
		}
		r.k.Run(10 * time.Second)
		if len(r.got) != 0 || r.k.Now() != 10*time.Second || r.k.Pending() != 20 {
			t.Fatalf("Run(10s): fired %d, clock %v, pending %d", len(r.got), r.k.Now(), r.k.Pending())
		}
		r.after(5*time.Second, nil)                       // 15 s: between clock and siblings
		r.after(10*time.Second+150*time.Microsecond, nil) // among the siblings
		r.after(10*time.Second, nil)                      // ties with the re-pushed event, fires after both
		r.after(time.Millisecond, nil)                    // right in front of the clock
		r.after(30*time.Second, nil)                      // beyond everything
		r.k.Run(15 * time.Second)
		if len(r.got) != 2 {
			t.Fatalf("Run(15s) fired %d events, want the two at 10.001 s and 15 s", len(r.got))
		}
		r.k.Run(19 * time.Second) // re-push again, nothing fired
		r.after(time.Second+time.Microsecond, nil)
		r.check("horizon re-push")
	})

	// Events exactly a whole number of 256-window rings apart, scheduled
	// after a Run horizon left the clock ten seconds behind the later
	// ones: the ring shared one slot between such windows, the heap orders
	// them by (at, seq) like any others.
	t.Run("later lap sharing a slot", func(t *testing.T) {
		r := newLadderRef(t)
		r.after(20*time.Second, nil)
		r.after(20*time.Second+ladderWidth, nil)
		r.k.Run(10 * time.Second)
		late := ladderWin(20 * time.Second)
		laps := (late - ladderWin(r.k.Now())) / ladderBuckets
		early := late - laps*ladderBuckets
		if laps == 0 || early <= ladderWin(r.k.Now()) {
			t.Fatalf("bad geometry: early window %d, clock window %d", early, ladderWin(r.k.Now()))
		}
		r.after(time.Duration(early)<<ladderShift+5-r.k.Now(), nil)
		r.after(time.Duration(early+1)<<ladderShift-r.k.Now(), nil)
		r.check("later lap")
	})
}

// TestLadderFarFutureOnly: a queue holding only events minutes to a day
// ahead of the clock, scheduled out of order, fires them in order.
func TestLadderFarFutureOnly(t *testing.T) {
	k := NewKernel()
	var got []time.Duration
	for _, d := range []time.Duration{time.Hour, time.Minute, 24 * time.Hour, 2 * time.Minute} {
		k.Schedule(d, func(now time.Duration) { got = append(got, now) })
	}
	k.RunAll()
	wantOrder := []time.Duration{time.Minute, 2 * time.Minute, time.Hour, 24 * time.Hour}
	if len(got) != len(wantOrder) {
		t.Fatalf("fired %d, want %d", len(got), len(wantOrder))
	}
	for i := range got {
		if got[i] != wantOrder[i] {
			t.Fatalf("order %v, want %v", got, wantOrder)
		}
	}
}

// --- Pool and generation-counter edge cases ------------------------------

// TestTimerReuseAfterFire: once a timer's event fires, the pooled record is
// recycled for later events. A stale Cancel through the old handle must not
// touch the new occupant.
func TestTimerReuseAfterFire(t *testing.T) {
	k := NewKernel()
	stale := k.Schedule(time.Millisecond, func(time.Duration) {})
	k.RunAll() // fires; record returns to the pool

	fired := false
	fresh := k.Schedule(time.Millisecond, func(time.Duration) { fired = true })
	stale.Cancel() // stale generation: must be a no-op
	k.RunAll()
	if !fired {
		t.Fatal("stale Cancel suppressed a recycled event (generation counter failed)")
	}
	if fresh.Cancelled() {
		t.Fatal("fresh handle reports cancelled")
	}
}

// TestTimerReuseAfterCancelAndCompaction: a cancelled event recycled by a
// pop sweep must equally ignore a second Cancel through the old handle.
func TestTimerReuseAfterCancelAndCompaction(t *testing.T) {
	k := NewKernel()
	old := k.Schedule(time.Millisecond, func(time.Duration) {})
	old.Cancel()
	k.Schedule(2*time.Millisecond, func(time.Duration) {})
	k.RunAll() // pop sweeps the cancelled record back into the pool

	fired := false
	k.Schedule(time.Millisecond, func(time.Duration) { fired = true })
	old.Cancel() // second cancel through a long-dead handle
	k.RunAll()
	if !fired {
		t.Fatal("re-cancel of a dead handle reached a recycled event")
	}
}

// TestCancelOwnTimerInsideHandler: a handler cancelling the timer that is
// currently firing must be a harmless no-op.
func TestCancelOwnTimerInsideHandler(t *testing.T) {
	k := NewKernel()
	var self Timer
	ran := false
	self = k.Schedule(time.Millisecond, func(time.Duration) {
		ran = true
		self.Cancel()
	})
	k.RunAll()
	if !ran {
		t.Fatal("handler did not run")
	}
	// The pool must still hand out working events afterwards.
	again := false
	k.Schedule(time.Millisecond, func(time.Duration) { again = true })
	k.RunAll()
	if !again {
		t.Fatal("kernel wedged after self-cancel")
	}
}

// TestCancelThroughCopiedHandleCountsOnce: Timer is a value, so handles
// copy freely; cancelling through two copies must settle the live count
// exactly once.
func TestCancelThroughCopiedHandleCountsOnce(t *testing.T) {
	k := NewKernel()
	a := k.Schedule(time.Millisecond, func(time.Duration) {})
	k.Schedule(2*time.Millisecond, func(time.Duration) {})
	b := a // copied handle
	a.Cancel()
	b.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d after double cancel via copies, want 1", k.Pending())
	}
	if !a.Cancelled() || !b.Cancelled() {
		t.Fatal("both handles should report cancelled")
	}
	k.RunAll()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", k.Pending())
	}
}

// TestEventDoubleFreePanics: releasing the same pooled record twice is a
// bug that would hand one event to two Schedule calls; the kernel must
// fail loudly instead.
func TestEventDoubleFreePanics(t *testing.T) {
	k := NewKernel()
	ev := k.alloc()
	k.release(ev)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	k.release(ev)
}

// TestStopInsideHandlerDuringRun: a handler that closes the stop channel
// halts the run once its instant is done — an event scheduled for that
// same instant still fires — leaving later events queued and runnable.
func TestStopInsideHandlerDuringRun(t *testing.T) {
	k := NewKernel()
	stop := make(chan struct{})
	k.SetStop(stop)
	order := []int{}
	k.Schedule(time.Millisecond, func(time.Duration) { order = append(order, 1) })
	k.Schedule(2*time.Millisecond, func(time.Duration) {
		order = append(order, 2)
		close(stop)
		k.Schedule(0, func(time.Duration) { order = append(order, 22) })
	})
	k.Schedule(3*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	if k.Run(time.Second) {
		t.Fatal("Run reported reaching its horizon after a handler closed the stop")
	}
	if !slices.Equal(order, []int{1, 2, 22}) {
		t.Fatalf("events before stop = %v, want [1 2 22]", order)
	}
	if k.Pending() != 1 || k.Now() != 2*time.Millisecond {
		t.Fatalf("Pending() = %d at %v after the stop, want the un-run event at 2ms", k.Pending(), k.Now())
	}
	k.SetStop(nil)
	k.Run(time.Second) // resumable
	if len(order) != 4 || order[3] != 3 {
		t.Fatalf("resume did not fire the remaining event: %v", order)
	}
}

// TestAtInPastDuringDispatch: an At for an instant the clock has already
// passed — issued from inside a handler mid-dispatch — clamps to now and
// still fires, after the currently-queued same-instant events.
func TestAtInPastDuringDispatch(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(5*time.Millisecond, func(now time.Duration) {
		got = append(got, 1)
		k.At(time.Millisecond, func(inner time.Duration) { // in the past
			if inner != 5*time.Millisecond {
				t.Errorf("past At fired at %v, want clamp to 5ms", inner)
			}
			got = append(got, 3)
		})
		k.Schedule(0, func(time.Duration) { got = append(got, 2) })
	})
	k.RunAll()
	// The past-At event was scheduled before the 0-delay one, so FIFO at
	// the clamped instant preserves issue order: 1, 3, 2.
	want := []int{1, 3, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// --- Live Pending and compaction -----------------------------------------

// TestPendingCountsLiveOnly: cancelled events vanish from Pending
// immediately, not when they are lazily swept.
func TestPendingCountsLiveOnly(t *testing.T) {
	k := NewKernel()
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, k.Schedule(time.Duration(i+1)*time.Millisecond, func(time.Duration) {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", k.Pending())
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if k.Pending() != 6 {
		t.Fatalf("Pending() = %d after 4 cancels, want 6", k.Pending())
	}
	timers[0].Cancel() // idempotent: must not double-decrement
	if k.Pending() != 6 {
		t.Fatalf("Pending() = %d after repeated cancel, want 6", k.Pending())
	}
	k.RunAll()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", k.Pending())
	}
}

// TestCancelHeavyLoadCompacts: under a cancel-dominated load (the CSMA
// retransmission pattern) the queue must shed cancelled entries instead of
// accumulating them until dispatch.
func TestCancelHeavyLoadCompacts(t *testing.T) {
	k := NewKernel()
	// One far-future survivor keeps the queue non-empty throughout.
	k.Schedule(time.Hour, func(time.Duration) {})
	for round := 0; round < 200; round++ {
		var batch []Timer
		for i := 0; i < 100; i++ {
			batch = append(batch, k.Schedule(time.Duration(i+1)*time.Millisecond, func(time.Duration) {}))
		}
		for _, tm := range batch {
			tm.Cancel()
		}
		if size := len(k.queue); size > 2*compactMin {
			t.Fatalf("round %d: queued %d entries for 1 live event; compaction is not keeping up", round, size)
		}
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 survivor", k.Pending())
	}
}

// TestCompactionPreservesOrder: compaction mid-stream must not perturb the
// dispatch order of surviving events.
func TestCompactionPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKernel()
	var want []refEvent
	var got []refEvent
	id := 0
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Intn(1_000_000_000))
		if rng.Intn(2) == 0 {
			me := refEvent{at: d, seq: id}
			id++
			want = append(want, me)
			k.Schedule(d, func(now time.Duration) { got = append(got, refEvent{at: now, seq: me.seq}) })
		} else {
			id++ // cancelled events still consume a slot in schedule order
			tm := k.Schedule(d, func(time.Duration) { t.Error("cancelled event fired") })
			tm.Cancel()
		}
	}
	k.RunAll()
	sortRef(want)
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].seq != want[i].seq {
			t.Fatalf("position %d fired seq %d, want %d", i, got[i].seq, want[i].seq)
		}
	}
}
