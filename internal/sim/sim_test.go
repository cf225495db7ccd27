package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"rica/internal/checkpoint"
)

func TestKernelZeroValueUsable(t *testing.T) {
	var k Kernel
	fired := false
	k.Schedule(time.Second, func(now time.Duration) { fired = true })
	k.RunAll()
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []time.Duration
	delays := []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second, 4 * time.Second}
	for _, d := range delays {
		k.Schedule(d, func(now time.Duration) { got = append(got, now) })
	}
	k.RunAll()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(got), len(delays))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(time.Second, func(time.Duration) { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d got event %d; simultaneous events must be FIFO", i, v)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func(now time.Duration) {
		k.Schedule(-time.Minute, func(inner time.Duration) {
			if inner != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", inner)
			}
		})
	})
	k.RunAll()
}

func TestAtInPastClampsToNow(t *testing.T) {
	k := NewKernel()
	k.Schedule(2*time.Second, func(now time.Duration) {
		k.At(time.Second, func(inner time.Duration) {
			if inner != 2*time.Second {
				t.Errorf("past At fired at %v, want 2s", inner)
			}
		})
	})
	k.RunAll()
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Schedule(time.Second, func(time.Duration) { fired = true })
	tm.Cancel()
	k.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !tm.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	tm := k.Schedule(time.Second, func(time.Duration) {})
	tm.Cancel()
	tm.Cancel() // must not panic
	var nilTimer *Timer
	nilTimer.Cancel() // nil receiver must be safe
	k.RunAll()
}

func TestWhenNilSafe(t *testing.T) {
	var nilTimer *Timer
	if got := nilTimer.When(); got != 0 {
		t.Fatalf("nil Timer.When() = %v, want 0", got)
	}
	if got := (&Timer{}).When(); got != 0 {
		t.Fatalf("zero Timer.When() = %v, want 0", got)
	}
	k := NewKernel()
	tm := k.Schedule(3*time.Second, func(time.Duration) {})
	if got := tm.When(); got != 3*time.Second {
		t.Fatalf("When() = %v, want 3s", got)
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	later := k.Schedule(2*time.Second, func(time.Duration) { fired = true })
	k.Schedule(time.Second, func(time.Duration) { later.Cancel() })
	k.RunAll()
	if fired {
		t.Fatal("event cancelled by an earlier event still fired")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		k.Schedule(d*time.Second, func(now time.Duration) { fired = append(fired, now) })
	}
	k.Run(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3 (inclusive)", len(fired))
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v after Run(3s), want 3s", k.Now())
	}
	k.Run(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunAdvancesClockToHorizonWhenQueueDrains(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func(time.Duration) {})
	k.Run(10 * time.Second)
	if k.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want horizon 10s", k.Now())
	}
}

// TestRunBehindClockIsNoOp: a horizon behind the clock must not rewind
// it. Before the guard, Run(3s) after Run(10s) popped the 20 s event, put
// it back and set the clock to 3 s — and a Schedule(1s) then fired at 4 s
// on a clock that had already read 10 s.
func TestRunBehindClockIsNoOp(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	note := func(now time.Duration) { fired = append(fired, now) }
	k.Schedule(5*time.Second, note)
	k.Schedule(20*time.Second, note)
	k.Run(10 * time.Second)
	seq, executed, pending, queued := k.seq, k.Executed(), k.Pending(), len(k.queue)

	k.Run(3 * time.Second)
	if k.Now() != 10*time.Second {
		t.Fatalf("Run(3s) after Run(10s) left the clock at %v, want 10s", k.Now())
	}
	if k.seq != seq || k.Executed() != executed || k.Pending() != pending || len(k.queue) != queued {
		t.Fatalf("Run behind the clock moved kernel state: seq %d→%d executed %d→%d pending %d→%d queued %d→%d",
			seq, k.seq, executed, k.Executed(), pending, k.Pending(), queued, len(k.queue))
	}
	k.Schedule(time.Second, note)
	k.Run(30 * time.Second)
	want := []time.Duration{5 * time.Second, 11 * time.Second, 20 * time.Second}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestExportStateIsLiveScheduleOnly: two kernels holding the same live
// schedule write the same KERN bytes, however many lazily-cancelled
// entries one of them still has physically queued — when the queue drops
// those is housekeeping, and a snapshot section hashed from the capture
// must not move with it. The bytes are the clock, the counters and the
// three live events in dispatch order.
func TestExportStateIsLiveScheduleOnly(t *testing.T) {
	build := func(sweep bool) []byte {
		k := NewKernel()
		noop := func(time.Duration) {}
		k.Schedule(2*time.Millisecond, noop)
		doomedNear := k.Schedule(3*time.Millisecond, noop)
		k.ScheduleArg(4*time.Millisecond, func(time.Duration, int, int) {}, 7, 9)
		doomedFar := k.Schedule(time.Minute, noop)
		k.Schedule(time.Hour, noop)
		doomedNear.Cancel()
		doomedFar.Cancel()
		if sweep {
			k.queue.dropCancelled(k.recs, k.release)
		}
		var e checkpoint.Enc
		k.Capture(&e)
		return e.Cut()
	}
	lazy, swept := build(false), build(true)
	if !bytes.Equal(lazy, swept) {
		t.Fatalf("KERN depends on queue housekeeping:\n lazy  %x\n swept %x", lazy, swept)
	}
	var want checkpoint.Enc
	want.Dur(0) // now
	want.U64(5) // seq: five events scheduled
	want.U64(0) // executed
	want.Int(3) // live
	want.Int(3) // events written
	for _, ev := range []struct {
		at     time.Duration
		seq    uint64
		arg    bool
		a0, a1 int
	}{{2 * time.Millisecond, 0, false, 0, 0}, {4 * time.Millisecond, 2, true, 7, 9}, {time.Hour, 4, false, 0, 0}} {
		want.Dur(ev.at)
		want.U64(ev.seq)
		want.Bool(ev.arg)
		want.Int(ev.a0)
		want.Int(ev.a1)
	}
	if w := want.Cut(); !bytes.Equal(lazy, w) {
		t.Fatalf("KERN of the three live events (the second a ScheduleArg(7, 9) at 4ms)\n got  %x\n want %x", lazy, w)
	}
}

// TestStopInterruptsRun: a stop channel closed mid-run ends Run at the
// instant boundary — every event of the closing instant dispatched, none
// of the next — reporting false; Run with the channel still closed moves
// nothing, and Run without it finishes the queue.
func TestStopInterruptsRun(t *testing.T) {
	k := NewKernel()
	stop := make(chan struct{})
	k.SetStop(stop)
	count := 0
	for i := 1; i <= 10; i++ {
		at := time.Duration(i) * time.Second
		for j := 0; j < 2; j++ { // two events per instant
			k.At(at, func(time.Duration) {
				count++
				if count == 5 {
					close(stop)
				}
			})
		}
	}
	if k.Run(time.Hour) {
		t.Fatal("Run reported reaching its horizon after the stop closed")
	}
	if count != 6 || k.Now() != 3*time.Second || k.Pending() != 14 {
		t.Fatalf("stopped with %d events fired at %v, %d pending; want 6 at 3s, 14 pending", count, k.Now(), k.Pending())
	}
	if k.Run(time.Hour) || count != 6 || k.Now() != 3*time.Second {
		t.Fatalf("a closed stop let Run move: %d events at %v", count, k.Now())
	}
	k.SetStop(nil)
	if !k.Run(time.Hour) || count != 20 || k.Now() != time.Hour {
		t.Fatalf("unstopped Run: %d events, clock %v; want 20 at the 1h horizon", count, k.Now())
	}
}

func TestHandlerCanScheduleMoreEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse Handler
	recurse = func(now time.Duration) {
		depth++
		if depth < 50 {
			k.Schedule(time.Millisecond, recurse)
		}
	}
	k.Schedule(0, recurse)
	k.RunAll()
	if depth != 50 {
		t.Fatalf("chained scheduling depth = %d, want 50", depth)
	}
	if k.Now() != 49*time.Millisecond {
		t.Fatalf("clock = %v, want 49ms", k.Now())
	}
}

func TestExecutedCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(time.Duration(i), func(time.Duration) {})
	}
	cancelled := k.Schedule(time.Hour, func(time.Duration) {})
	cancelled.Cancel()
	k.RunAll()
	if k.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7 (cancelled events do not count)", k.Executed())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil handler) did not panic")
		}
	}()
	NewKernel().Schedule(time.Second, nil)
}

// TestHeapPropertyOrdering pushes random event times and checks pops come
// out sorted, for many random configurations.
func TestHeapPropertyOrdering(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		var h entryHeap
		for i, d := range delaysRaw {
			h.push(entry{at: time.Duration(d) * time.Microsecond, seq: uint64(i)})
		}
		for prev, first := (entry{}), true; len(h) > 0; first = false {
			e := h.pop()
			if !first && !prev.less(e) {
				return false // out of time order, or FIFO violated among ties
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelPropertyMonotonicClock(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		last := time.Duration(-1)
		ok := true
		var schedule func(time.Duration)
		schedule = func(now time.Duration) {
			if now < last {
				ok = false
			}
			last = now
			if rng.Intn(3) > 0 {
				k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, schedule)
			}
		}
		for i := 0; i < int(n)%32+1; i++ {
			k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, schedule)
		}
		k.Run(30 * time.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsDeterministic(t *testing.T) {
	a := NewStreams(42).Stream(7)
	b := NewStreams(42).Stream(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,id) produced different sequences")
		}
	}
}

func TestStreamsIndependentAcrossIDs(t *testing.T) {
	s := NewStreams(42)
	a, b := s.Stream(1), s.Stream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for different ids collided %d/64 times", same)
	}
}

func TestStreamsDifferentSeedsDiffer(t *testing.T) {
	a := NewStreams(1).Stream(7)
	b := NewStreams(2).Stream(7)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for different seeds collided %d/64 times", same)
	}
}

// TestRetiredStreamsDrawAfresh is the law behind Streams.Retire: the
// vectors a retired factory hands on seed into the same generators
// fresh storage does. A donor factory makes streams, draws from them
// within their first 273 draws, part of a lap and past a lap of the
// vector, and retires; a factory on another seed then makes streams,
// which take the donor's vectors at their 274th draws, and each must draw what
// math/rand's own source for its seed draws, past two laps, and be
// recorded at those draws. It must take donor vectors, or it proves
// nothing.
func TestRetiredStreamsDrawAfresh(t *testing.T) {
	donor := NewStreams(5)
	for id := uint64(0); id < 8; id++ {
		r := donor.Stream(id)
		for k := uint64(0); k < 100*id+37; k++ {
			r.Uint64()
		}
	}
	given := map[*fastSource]bool{}
	for _, rec := range donor.recs {
		if rec.st.full != nil {
			given[rec.st.full] = true
		}
	}
	donor.Retire()

	s := NewStreams(77)
	for id := uint64(0); id < 8; id++ {
		got := s.Stream(id)
		want := rand.NewSource(int64(mix(77, id))).(rand.Source64)
		for k := 0; k < 2*rngLen; k++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %d, draw %d: %d from retired storage, %d from math/rand", id, k, a, b)
			}
		}
	}
	taken := 0
	for _, rec := range s.recs {
		if given[rec.st.full] {
			taken++
		}
	}
	if taken == 0 {
		t.Fatal("no stream took the retired factory's storage: the law was not exercised")
	}
	var draws []uint64
	s.EachState(func(_, n uint64) { draws = append(draws, n) })
	for id, n := range draws {
		if n != 2*rngLen {
			t.Errorf("stream %d is recorded at %d draws, want %d", id, n, 2*rngLen)
		}
	}
}

func TestStreamAtMatchesMixedStream(t *testing.T) {
	s := NewStreams(9)
	a := s.StreamAt(3, 4)
	b := s.Stream(mix(3, 4))
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("StreamAt(kind,idx) != Stream(mix(kind,idx))")
		}
	}
}

func TestMixDispersesSmallIDs(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		v := mix(42, i)
		if seen[v] {
			t.Fatalf("mix collision at id %d", i)
		}
		seen[v] = true
	}
}

func BenchmarkKernelScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(time.Duration(j%97)*time.Millisecond, func(time.Duration) {})
		}
		k.RunAll()
	}
}

// BenchmarkKernelDenseWindow is the kernel at steady state with k events
// in every 1 ms window — each event, when it fires, files its successor
// at a pseudo-random offset in the next window — so one op is one pop
// from, and one push into, a queue holding ≈ k live entries. ns/op must
// grow like log k (the queue is a heap), not like k (a scan); the alloc
// gate holds it at zero allocations, an untimed lap of 257 windows having
// grown the heap and the record pool to their working size.
func BenchmarkKernelDenseWindow(b *testing.B) {
	for _, per := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("k=%d", per), func(b *testing.B) {
			k := NewKernel()
			rnd := uint64(per)
			var tick ArgHandler
			tick = func(now time.Duration, _, _ int) {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				next := (now>>ladderShift+1)<<ladderShift + time.Duration(rnd>>(64-ladderShift))
				k.AtArg(next, tick, 0, 0)
			}
			for i := 0; i < per; i++ {
				k.ScheduleArg(0, tick, 0, 0)
			}
			for i := 0; i < (ladderBuckets+1)*per; i++ {
				k.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
