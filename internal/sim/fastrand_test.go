package sim

import (
	"math/rand"
	"testing"
)

// TestFastSourceVerified asserts the init-time proof ran and passed on
// this toolchain: if math/rand's source ever changes shape, this fails
// loudly (and Streams silently falls back to the stock source, so
// correctness never depended on it).
func TestFastSourceVerified(t *testing.T) {
	if !fastSourceOK {
		t.Fatal("fastSource self-check failed: jump-ahead seeding no longer matches math/rand")
	}
}

// TestFastSourceMatchesStdlibDraws compares full rand.Rand streams —
// Uint64, Int63n, Float64, NormFloat64, ExpFloat64 — over the replica
// and the stock source across seeds, far past the 607-word lap so the
// additive feedback has fully taken over from the seeded state.
func TestFastSourceMatchesStdlibDraws(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 50), 1<<31 - 1, 1 << 31} {
		fast := rand.New(newFastSource(seed))
		std := rand.New(rand.NewSource(seed))
		for k := 0; k < 3000; k++ {
			if a, b := fast.Uint64(), std.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, k, a, b)
			}
			if a, b := fast.Int63n(1_000_003), std.Int63n(1_000_003); a != b {
				t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, k, a, b)
			}
			if a, b := fast.Float64(), std.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %x != %x", seed, k, a, b)
			}
			if a, b := fast.NormFloat64(), std.NormFloat64(); a != b {
				t.Fatalf("seed %d draw %d: NormFloat64 %x != %x", seed, k, a, b)
			}
			if a, b := fast.ExpFloat64(), std.ExpFloat64(); a != b {
				t.Fatalf("seed %d draw %d: ExpFloat64 %x != %x", seed, k, a, b)
			}
		}
	}
}

// TestFastSourceReseed checks Seed reuses a source correctly: a reseeded
// replica must restart the exact stdlib sequence for the new seed.
func TestFastSourceReseed(t *testing.T) {
	s := newFastSource(1)
	for k := 0; k < 100; k++ {
		s.Uint64()
	}
	s.Seed(999)
	ref := rand.NewSource(999).(rand.Source64)
	for k := 0; k < 1300; k++ {
		if a, b := s.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d after reseed: %d != %d", k, a, b)
		}
	}
}

// TestEachStateLendsLiveState holds the checkpoint seam's contract: the
// visit walks streams in creation order, shows each one's live cursor
// and vector (a draw between two visits is seen by the second), and
// advances nothing — a visited factory draws what an unvisited one does.
// A factory holding a stream whose state cannot be read visits nothing.
func TestEachStateLendsLiveState(t *testing.T) {
	visited, plain := NewStreams(7), NewStreams(7)
	ids := []uint64{3, 1, 4}
	var vr, pr []*rand.Rand
	for _, id := range ids {
		vr = append(vr, visited.Stream(id))
		pr = append(pr, plain.Stream(id))
	}
	type seen struct {
		id        uint64
		tap, feed int
		last      int64 // the word under the feed cursor: what the latest draw wrote
	}
	visit := func() (out []seen) {
		ok := visited.EachState(func(id uint64, tap, feed int, vec []int64) {
			if len(vec) != rngLen {
				t.Fatalf("stream %d lends %d words, want %d", id, len(vec), rngLen)
			}
			out = append(out, seen{id, tap, feed, vec[feed]})
		})
		if !ok || len(out) != visited.Len() {
			t.Fatalf("EachState: ok=%v, visited %d of %d streams", ok, len(out), visited.Len())
		}
		return out
	}
	before := visit()
	for i, s := range before {
		if s.id != ids[i] || s.tap != 0 || s.feed != rngLen-rngTap {
			t.Errorf("fresh stream %d seen as %+v, want id %d at the seeded cursor", i, s, ids[i])
		}
	}
	drawn := vr[1].Uint64()
	pr[1].Uint64()
	after := visit()
	if after[0] != before[0] || after[2] != before[2] {
		t.Errorf("a draw on stream 1 moved its neighbours: %+v -> %+v", before, after)
	}
	if want := rngLen - rngTap - 1; after[1].feed != want || uint64(after[1].last) != drawn {
		t.Errorf("after one draw stream 1 is seen as %+v, want feed %d holding the drawn word %d", after[1], want, drawn)
	}
	for i := range vr {
		for k := 0; k < 2*rngLen; k++ {
			if a, b := vr[i].Uint64(), pr[i].Uint64(); a != b {
				t.Fatalf("stream %d draw %d: visited factory drew %d, unvisited %d", i, k, a, b)
			}
		}
	}

	visited.recs = append(visited.recs, streamRec{id: 9}) // a stock-fallback stream
	if visited.EachState(func(uint64, int, int, []int64) { t.Error("visited a stream of an unreadable factory") }) {
		t.Error("EachState reported an unreadable factory as ok")
	}
}

// TestSeedAtMatchesStreamAt: a stream seeded in caller-owned memory is
// the stream StreamAt hands out for the same (kind, index) — draw for
// draw past two laps of the vector and through the ziggurat — and is
// recorded like one: EachState lends the inline state, in creation
// order among heap-allocated streams, and sees the in-place stream's
// draws.
func TestSeedAtMatchesStreamAt(t *testing.T) {
	inPlace, plain := NewStreams(11), NewStreams(11)
	type owner struct {
		hot [4]uint64 // the caller's own state ahead of the stream
		mem StreamMem
	}
	var own owner
	inPlace.Stream(5)
	got := inPlace.SeedAt(&own.mem, 0xC4A1, 42)
	inPlace.Stream(6)
	plain.Stream(5)
	want := plain.StreamAt(0xC4A1, 42)
	plain.Stream(6)

	for k := 0; k < 2*rngLen; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d: in-place Uint64 %d, StreamAt %d", k, a, b)
		}
	}
	for k := 0; k < 1000; k++ {
		if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
			t.Fatalf("draw %d: in-place NormFloat64 %x, StreamAt %x", k, a, b)
		}
	}
	if own.hot != [4]uint64{} {
		t.Fatal("seeding in place wrote outside the stream's memory")
	}

	type seen struct {
		id        uint64
		tap, feed int
		head      *int64
	}
	visit := func(s *Streams) (out []seen) {
		if !s.EachState(func(id uint64, tap, feed int, vec []int64) {
			out = append(out, seen{id, tap, feed, &vec[0]})
		}) {
			t.Fatal("EachState reports a fast-source factory unexportable")
		}
		return out
	}
	a, b := visit(inPlace), visit(plain)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("visited %d and %d streams, want 3 each", len(a), len(b))
	}
	for i := range a {
		if a[i].id != b[i].id || a[i].tap != b[i].tap || a[i].feed != b[i].feed {
			t.Errorf("stream %d: in-place factory lends (id %#x, tap %d, feed %d), plain (id %#x, tap %d, feed %d)",
				i, a[i].id, a[i].tap, a[i].feed, b[i].id, b[i].tap, b[i].feed)
		}
	}
	if a[1].head != &own.mem.src.vec[0] {
		t.Error("EachState lends a copy of the in-place stream's vector, not the caller's memory")
	}
}

// TestSeedAtFallback forces the stock-source path the replica's failed
// self-check would select: the in-place stream must still draw what
// StreamAt draws, and the factory must report itself unexportable.
func TestSeedAtFallback(t *testing.T) {
	want := NewStreams(3).StreamAt(9, 1) // fast replica: identical to stock by TestFastSourceMatchesStdlibDraws
	defer func(ok bool) { fastSourceOK = ok }(fastSourceOK)
	fastSourceOK = false

	s := NewStreams(3)
	var mem StreamMem
	got := s.SeedAt(&mem, 9, 1)
	for k := 0; k < 2*rngLen; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d: fallback in-place Uint64 %d, StreamAt %d", k, a, b)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("fallback stream not recorded: Len() = %d", s.Len())
	}
	if s.EachState(func(uint64, int, int, []int64) { t.Error("visited a stock-source stream") }) {
		t.Error("EachState reported a stock-source factory as ok")
	}
}

// BenchmarkSourceSeedingStd and BenchmarkSourceSeedingFast quantify the
// seeding speedup the lazy fading-link path rides.
func BenchmarkSourceSeedingStd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.NewSource(int64(i + 1))
	}
}

func BenchmarkSourceSeedingFast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newFastSource(int64(i + 1))
	}
}
