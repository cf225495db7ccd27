package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
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

// states collects what EachState shows, in visit order.
func states(s *Streams) (ids, draws []uint64) {
	s.EachState(func(id, n uint64) {
		ids = append(ids, id)
		draws = append(draws, n)
	})
	return ids, draws
}

// TestEachStateLendsLiveState holds the checkpoint seam's contract: the
// visit walks streams in creation order, shows each one's live draw
// count (a draw between two visits is seen by the second, through the
// tap's wrap as much as before it), and advances nothing — a visited
// factory draws what an unvisited one does.
func TestEachStateLendsLiveState(t *testing.T) {
	visited, plain := NewStreams(7), NewStreams(7)
	want := []uint64{3, 1, 4}
	var vr, pr []*rand.Rand
	for _, id := range want {
		vr = append(vr, visited.Stream(id))
		pr = append(pr, plain.Stream(id))
	}
	ids, draws := states(visited)
	if len(ids) != visited.Len() {
		t.Fatalf("EachState visited %d of %d streams", len(ids), visited.Len())
	}
	for i := range want {
		if ids[i] != want[i] || draws[i] != 0 {
			t.Errorf("fresh stream %d seen as (id %d, draws %d), want (id %d, draws 0)", i, ids[i], draws[i], want[i])
		}
	}
	for _, step := range []int{1, rngLen - 1, 1, rngLen} { // up to, onto and past the wrap
		for k := 0; k < step; k++ {
			vr[1].Uint64()
			pr[1].Uint64()
		}
		want[1] += uint64(step)
	}
	if _, draws = states(visited); draws[0] != 0 || draws[2] != 0 || draws[1] != 2*rngLen+1 {
		t.Errorf("after %d draws on stream 1 the factory shows draws %v, want [0 %d 0]", 2*rngLen+1, draws, 2*rngLen+1)
	}
	for i := range vr {
		for k := 0; k < 2*rngLen; k++ {
			if a, b := vr[i].Uint64(), pr[i].Uint64(); a != b {
				t.Fatalf("stream %d draw %d: visited factory drew %d, unvisited %d", i, k, a, b)
			}
		}
	}
}

// TestSeedAtMatchesStreamAt: a stream seeded in caller-owned memory is
// the stream StreamAt hands out for the same (kind, index) — draw for
// draw past two laps of the vector and through the ziggurat — and is
// recorded like one: EachState shows it in creation order among
// heap-allocated streams, with the draws made through the caller's
// memory.
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

	aID, aDraws := states(inPlace)
	bID, bDraws := states(plain)
	if len(aID) != 3 || len(bID) != 3 {
		t.Fatalf("visited %d and %d streams, want 3 each", len(aID), len(bID))
	}
	for i := range aID {
		if aID[i] != bID[i] || aDraws[i] != bDraws[i] {
			t.Errorf("stream %d: in-place factory shows (id %#x, draws %d), plain (id %#x, draws %d)",
				i, aID[i], aDraws[i], bID[i], bDraws[i])
		}
	}
	if aDraws[1] < 2*rngLen+1000 || aDraws[1] != own.mem.src.draws() {
		t.Errorf("EachState shows %d draws on the in-place stream, the caller's memory holds %d (≥ %d made)",
			aDraws[1], own.mem.src.draws(), 2*rngLen+1000)
	}
}

// TestSeedAtFallback forces the stock-source path the replica's failed
// self-check would select: the in-place stream must still draw what
// StreamAt draws, and the factory is as exportable as any — the stock
// source rides a draw counter.
func TestSeedAtFallback(t *testing.T) {
	want := NewStreams(3).StreamAt(9, 1) // fast replica: identical to stock by TestFastSourceMatchesStdlibDraws
	defer func(ok bool) { fastSourceOK = ok }(fastSourceOK)
	fastSourceOK = false

	s := NewStreams(3)
	var mem StreamMem
	got := s.SeedAt(&mem, 9, 1)
	heap := s.Stream(8)
	heap.Float64()
	for k := 0; k < 2*rngLen; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d: fallback in-place Uint64 %d, StreamAt %d", k, a, b)
		}
	}
	ids, draws := states(s)
	if len(ids) != 2 || ids[0] != mix(9, 1) || ids[1] != 8 || draws[0] != 2*rngLen || draws[1] != 1 {
		t.Errorf("fallback factory shows ids %#x draws %v, want [%#x 0x8] [%d 1]", ids, draws, mix(9, 1), 2*rngLen)
	}
}

// drawMix draws through one of the rand.Rand methods the tree uses,
// chosen by pick.
func drawMix(r *rand.Rand, pick int) {
	switch pick % 5 {
	case 0:
		r.Int63()
	case 1:
		r.Int63n(1_000_003)
	case 2:
		r.Float64()
	case 3:
		r.NormFloat64()
	case 4:
		r.Intn(97)
	}
}

// genState is a generator's whole state as math/rand holds it.
type genState struct {
	tap, feed int
	vec       [rngLen]int64
}

// stateOf reads the state behind a stream's source: the replica's own
// fields, or the stock source's through the layout recoverCooked
// verified at init.
func stateOf(t *testing.T, src drawSource) genState {
	switch s := src.(type) {
	case *fastSource:
		return genState{s.tap, s.feed, s.vec}
	case *countedSource:
		std := (*stdRngLayout)(unsafe.Pointer(reflect.ValueOf(s.src).Pointer()))
		return genState{std.tap, std.feed, std.vec}
	}
	t.Fatalf("unknown source %T", src)
	return genState{}
}

// TestDrawCountNamesState is the law RNGS rests on: two streams of one
// seed report equal draw counts exactly when their generators are in the
// same state — cursor and all 607 words — whichever mix of rand.Rand
// methods moved them (NormFloat64 and Int63n take a data-dependent number
// of source steps, so calls and draws are different counts). Held over
// Stream, SeedAt and the counting fallback.
func TestDrawCountNamesState(t *testing.T) {
	if !fastSourceOK {
		t.Skip("stock source layout unverified") // TestFastSourceVerified reports it
	}
	defer func() { fastSourceOK = true }()
	makers := []struct {
		name string
		fast bool
		make func(s *Streams, kind, index uint64) *rand.Rand
	}{
		{"Stream", true, (*Streams).StreamAt},
		{"SeedAt", true, func(s *Streams, kind, index uint64) *rand.Rand { return s.SeedAt(new(StreamMem), kind, index) }},
		{"fallback", false, (*Streams).StreamAt},
	}
	rng := rand.New(rand.NewSource(19))
	equal := 0
	for it := 0; it < 10_000; it++ {
		mk := makers[it%len(makers)]
		fastSourceOK = mk.fast
		seed, kind, index := rng.Int63(), rng.Uint64(), rng.Uint64()
		fa, fb := NewStreams(seed), NewStreams(seed)
		a, b := mk.make(fa, kind, index), mk.make(fb, kind, index)
		// a moves through a random mix. On even iterations b moves through
		// a mix of its own; on odd ones it takes a's draw count in plain
		// single steps, so equal counts reached differently are compared.
		ka := rng.Intn(3*rngLen + 1)
		for i := 0; i < ka; i++ {
			drawMix(a, rng.Intn(5))
		}
		_, da := states(fa)
		if da[0] < uint64(ka) || da[0] > uint64(2*ka+64) {
			t.Fatalf("%s iter %d (seed %d): %d draws reported after %d calls of at least one step each", mk.name, it, seed, da[0], ka)
		}
		if it%2 == 0 {
			for i, k := 0, rng.Intn(3*rngLen+1); i < k; i++ {
				drawMix(b, rng.Intn(5))
			}
		} else {
			for i := uint64(0); i < da[0]; i++ {
				b.Int63()
			}
		}
		_, db := states(fb)
		same := stateOf(t, fa.recs[0].src) == stateOf(t, fb.recs[0].src)
		if (da[0] == db[0]) != same {
			t.Fatalf("%s iter %d (seed %d): draws %d and %d, states equal = %v", mk.name, it, seed, da[0], db[0], same)
		}
		if same {
			equal++
		}
	}
	if equal < 4000 || equal > 6000 {
		t.Errorf("%d of 10000 iterations compared equal states: the loop is not exercising both directions", equal)
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

// TestParkReviveIsExact: a parked stream revived into memory that has
// since held another generator is the stream it was. Streams are parked
// at draw counts on both sides of each wrap of the tap (0, 1, 606, 607,
// 608, 1214) and at 1,000 random counts; the revived stream and an
// untouched twin must then agree on the draw count — in the caller's
// memory and in EachState, while parked and after — and on the next
// 1,214 draws, the last of which the factory must see through the
// re-pointed record.
func TestParkReviveIsExact(t *testing.T) {
	if !fastSourceOK {
		t.Skip("replica unverified: streams are never parked") // TestFastSourceVerified reports it
	}
	rng := rand.New(rand.NewSource(29))
	counts := []int{0, 1, rngLen - 1, rngLen, rngLen + 1, 2 * rngLen}
	for range 1000 {
		counts = append(counts, rng.Intn(20*rngLen))
	}
	for _, k := range counts {
		seed, kind, index := rng.Int63(), rng.Uint64(), rng.Uint64()
		parked, plain := NewStreams(seed), NewStreams(seed)
		var mem, twin StreamMem
		a := parked.SeedAt(&mem, kind, index)
		b := plain.SeedAt(&twin, kind, index)
		for i := 0; i < k; i++ {
			a.Uint64()
			b.Uint64()
		}
		p := parked.Park(&mem)
		// Another generator moves through the memory while the stream is
		// parked, as a recycled record's would.
		mem.src.Seed(rng.Int63())
		mem.src.skip(uint64(rng.Intn(3 * rngLen)))
		if _, d := states(parked); d[0] != uint64(k) {
			t.Fatalf("parked at %d draws, EachState shows %d", k, d[0])
		}
		got := parked.Revive(&mem, p)
		if mem.src.draws() != twin.src.draws() {
			t.Fatalf("revived at %d draws: memory holds %d", k, mem.src.draws())
		}
		for i := 0; i < 2*rngLen; i++ {
			if x, y := got.Uint64(), b.Uint64(); x != y {
				t.Fatalf("revived at %d draws: draw %d after revival is %d, the twin's %d", k, i, x, y)
			}
		}
		_, da := states(parked)
		_, db := states(plain)
		if da[0] != db[0] || da[0] != uint64(k+2*rngLen) {
			t.Fatalf("revived at %d draws, %d more made: EachState shows %d, the twin's %d", k, 2*rngLen, da[0], db[0])
		}
	}
}
