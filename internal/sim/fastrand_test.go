package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestFastSourceVerified holds the init-time guard both ways: the
// self-check passes on this toolchain with the table recovered from
// math/rand's outputs, and it fails — so init would panic — when one
// word of that table is wrong.
func TestFastSourceVerified(t *testing.T) {
	if !verifyFastSource() {
		t.Fatal("fastSource self-check failed: jump-ahead seeding no longer matches math/rand")
	}
	const word = rngLen / 2
	saved := rngCooked[word]
	defer func() { rngCooked[word] = saved }()
	rngCooked[word] ^= 1 << 17
	if verifyFastSource() {
		t.Fatalf("self-check passed with cooked word %d flipped: the init guard cannot fire", word)
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
// replica must restart the exact stdlib sequence for the new seed, and so
// must a stream reseeded after it has taken its vector.
func TestFastSourceReseed(t *testing.T) {
	for _, s := range []interface {
		Seed(int64)
		Uint64() uint64
	}{newFastSource(1), &newStream(1).rng} {
		for k := 0; k < 2*rngTap; k++ {
			s.Uint64()
		}
		s.Seed(999)
		ref := rand.NewSource(999).(rand.Source64)
		for k := 0; k < 1300; k++ {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("%T: draw %d after reseed: %d != %d", s, k, a, b)
			}
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
// memory. Unlike one from Stream, it holds its vector from birth.
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
	if !own.mem.Held() || inPlace.Held() != 1 || plain.Held() != 0 {
		t.Fatalf("before any draw: in place holds a vector = %v, factories hold %d and %d, want true, 1 and 0",
			own.mem.Held(), inPlace.Held(), plain.Held())
	}

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
	if aDraws[1] < 2*rngLen+1000 || aDraws[1] != own.mem.st.draws() {
		t.Errorf("EachState shows %d draws on the in-place stream, the caller's memory holds %d (≥ %d made)",
			aDraws[1], own.mem.st.draws(), 2*rngLen+1000)
	}
}

// TestSeedAtFallback is the one-path law: a stream made on the heap by
// Stream and one seeded in place by SeedAt under the same id are the same
// generator — draw for draw past two laps of the vector — and EachState
// lists both, among other streams, in the order they were made, with
// their draw counts.
func TestSeedAtFallback(t *testing.T) {
	s := NewStreams(3)
	var mem StreamMem
	heap := s.Stream(mix(9, 1))
	s.Stream(8).Float64()
	inPlace := s.SeedAt(&mem, 9, 1)
	for k := 0; k < 2*rngLen; k++ {
		if a, b := heap.Uint64(), inPlace.Uint64(); a != b {
			t.Fatalf("draw %d: heap Stream %d, in-place SeedAt %d", k, a, b)
		}
	}
	ids, draws := states(s)
	want := []uint64{mix(9, 1), 8, mix(9, 1)}
	if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] ||
		draws[0] != 2*rngLen || draws[1] != 1 || draws[2] != 2*rngLen {
		t.Errorf("factory shows ids %#x draws %v, want %#x [%d 1 %d]", ids, draws, want, 2*rngLen, 2*rngLen)
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
	tap, feed int16
	vec       [rngLen]int64
}

// stateOf reads the state of the generator behind a stream's record. A
// stream without a vector is in the state of a fresh generator for its
// seed stepped as many times as it has drawn, built here to compare.
func stateOf(rec streamRec) genState {
	src := rec.st.full
	if src == nil {
		src = new(fastSource)
		src.seedX0(int64(rec.st.x0))
		src.skip(rec.st.k)
	}
	return genState{src.tap, src.feed, src.vec}
}

// TestDrawCountNamesState is the law RNGS rests on: two streams of one
// seed report equal draw counts exactly when their generators are in the
// same state — cursor and all 607 words — whichever mix of rand.Rand
// methods moved them (NormFloat64 and Int63n take a data-dependent number
// of source steps, so calls and draws are different counts). Held over
// Stream and SeedAt.
func TestDrawCountNamesState(t *testing.T) {
	makers := []struct {
		name string
		make func(s *Streams, kind, index uint64) *rand.Rand
	}{
		{"Stream", (*Streams).StreamAt},
		{"SeedAt", func(s *Streams, kind, index uint64) *rand.Rand { return s.SeedAt(new(StreamMem), kind, index) }},
	}
	rng := rand.New(rand.NewSource(19))
	equal := 0
	for it := 0; it < 10_000; it++ {
		mk := makers[it%len(makers)]
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
		same := stateOf(fa.recs[0]) == stateOf(fb.recs[0])
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

// TestParkReviveIsExact: a stream that releases its vector and draws
// again is the stream it was, whoever took the vector meanwhile. Streams
// are released at draw counts on both sides of the seed words' end and
// of each wrap of the tap (0, 1, 272, 273, 274, 606, 607, 608, 1213,
// 1214, 1215) and at 1,000 random counts, drawn on for a random count
// and released again, then drawn on for two laps. After each release
// another stream takes a vector from the pool and moves it. At every
// point the stream and an untouched twin must agree on each draw and on
// the count EachState shows, and the stream must hold its vector
// exactly when it has drawn past the seed words since its last release:
// one released below 273 draws draws from the seed words again.
func TestParkReviveIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	counts := []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen - 1, rngLen, rngLen + 1, 2*rngLen - 1, 2 * rngLen, 2*rngLen + 1}
	for range 1000 {
		counts = append(counts, rng.Intn(20*rngLen))
	}
	other := NewStreams(1)
	for _, k := range counts {
		seed, kind, index := rng.Int63(), rng.Uint64(), rng.Uint64()
		released, plain := NewStreams(seed), NewStreams(seed)
		var mem, twin StreamMem
		a := released.SeedAt(&mem, kind, index)
		b := plain.SeedAt(&twin, kind, index)
		made, since := 0, -1 // since: draws since the last release, -1 before one
		draw := func(n int, at uint64) {
			for i := 0; i < n; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("released at %d draws: draw %d after it is %d, the twin's %d", at, i, x, y)
				}
			}
			made += n
			if since >= 0 {
				since += n
			}
			_, da := states(released)
			if da[0] != uint64(made) || da[0] != twin.st.draws() {
				t.Fatalf("released at %d draws, %d made: EachState shows %d, the twin %d", at, made, da[0], twin.st.draws())
			}
			if want := since != 0 && made > rngTap || since < 0; mem.Held() != want {
				t.Fatalf("released at %d draws, %d more made: holds its vector = %v, want %v", at, since, mem.Held(), want)
			}
		}
		release := func() uint64 {
			at := uint64(made)
			mem.Release()
			since = 0
			if mem.Held() {
				t.Fatalf("released at %d draws: still holds its vector", at)
			}
			// Another stream takes a vector from the pool, most likely the
			// one just released, and moves it.
			var scratch StreamMem
			r := other.SeedAt(&scratch, rng.Uint64(), rng.Uint64())
			for range rng.Intn(3 * rngLen) {
				r.Uint64()
			}
			scratch.Release()
			return at
		}
		draw(k, 0)
		at := release()
		draw(0, at)
		draw(rng.Intn(2*rngLen), at)
		at = release()
		draw(2*rngLen, at)
	}
}

// TestPeekIsTheNextDraw: StreamMem.Peek reports the word the stream's
// next step produces and moves nothing. Over three laps of the tap —
// both cursors wrap — every Peek must equal the following draw, a second
// Peek must equal the first, and the draw count must not see the peeks.
func TestPeekIsTheNextDraw(t *testing.T) {
	s := NewStreams(31)
	var mem StreamMem
	r := s.SeedAt(&mem, 7, 9)
	for i := 0; i < 3*rngLen; i++ {
		p := mem.Peek()
		if again := mem.Peek(); again != p {
			t.Fatalf("draw %d: Peek = %d, then %d", i, p, again)
		}
		if got := r.Uint64(); got != p {
			t.Fatalf("draw %d: Peek = %d, the draw %d", i, p, got)
		}
		if _, d := states(s); d[0] != uint64(i+1) {
			t.Fatalf("after %d draws and their peeks EachState shows %d", i+1, d[0])
		}
	}
	if mem.Release(); mem.Peek() != 0 {
		t.Fatal("Peek read ahead on a stream holding no vector")
	}
}

// countedRef is math/rand's own source with a count of its steps.
type countedRef struct {
	src rand.Source64
	n   uint64
}

func (c *countedRef) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countedRef) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countedRef) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// TestVirginStreamLaw is the law a virgin stream rests on: a stream that
// holds no vector until its 274th draw draws what math/rand's source for
// its seed draws, before, across and after that draw, whichever
// rand.Rand method takes it, and reports the draws made. A seeded loop
// of 10,000 streams moves each through a random mix of Int63, Uint64,
// Int63n, Float64 and NormFloat64 to a random step count in 0..2·607,
// comparing every value with math/rand's. The seeds are random ones and
// verifyFastSource's edge seeds; every fourth stream is made for such a
// seed directly, the rest come from Streams.Stream and are counted
// through EachState. Each method must cross the hand-over to the
// full generator at least 100 times.
func TestVirginStreamLaw(t *testing.T) {
	edge := []int64{0, 1, 2, -7, seedBase, lcgM, lcgM + 1, 1<<62 + 12345, -1 << 40}
	methods := []string{"Int63", "Uint64", "Int63n", "Float64", "NormFloat64"}
	var crossed [5]int
	rng := rand.New(rand.NewSource(41))
	for it := 0; it < 10_000; it++ {
		var (
			seed  int64
			got   *rand.Rand
			draws func() uint64
		)
		if it%4 == 0 {
			seed = edge[rng.Intn(len(edge))]
			st := newStream(seed)
			got, draws = &st.rng, st.draws
		} else {
			s := NewStreams(rng.Int63() - rng.Int63())
			id := rng.Uint64()
			seed = int64(mix(s.seed, id))
			got = s.Stream(id)
			draws = func() uint64 {
				_, d := states(s)
				return d[0]
			}
		}
		ref := &countedRef{src: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(ref)
		target := uint64(rng.Intn(2*rngLen + 1))
		for ref.n < target {
			m, before := rng.Intn(len(methods)), ref.n
			var a, b any
			switch m {
			case 0:
				a, b = got.Int63(), want.Int63()
			case 1:
				a, b = got.Uint64(), want.Uint64()
			case 2:
				n := 1 + rng.Int63n(1<<62)
				a, b = got.Int63n(n), want.Int63n(n)
			case 3:
				a, b = got.Float64(), want.Float64()
			case 4:
				a, b = got.NormFloat64(), want.NormFloat64()
			}
			if a != b {
				t.Fatalf("iter %d (seed %d): %s after %d draws = %v, math/rand's %v", it, seed, methods[m], before, a, b)
			}
			if before <= rngTap && ref.n > rngTap {
				crossed[m]++
			}
		}
		if d := draws(); d != ref.n {
			t.Fatalf("iter %d (seed %d): %d draws made, the stream reports %d", it, seed, ref.n, d)
		}
	}
	for m, n := range crossed {
		if n < 100 {
			t.Errorf("%s took the 274th draw %d times: the hand-over is not exercised through it", methods[m], n)
		}
	}
}

// TestVirginStreamLayout pins what a stream costs while it holds no
// vector: beside its rand.Rand, the 32-bit LCG start, the 64-bit draw
// count (a released link stream's count can pass 2³² within
// scenario.MaxDuration) and the pointer to its vector — 72 bytes on a
// 64-bit build, the size of the record a fading link embeds. A field
// added to it is a visible decision.
func TestVirginStreamLayout(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	want := unsafe.Sizeof(rand.Rand{}) + 4 + 8 + word
	if word == 8 {
		want = 72 // the count's alignment pads the LCG start
	}
	if got := unsafe.Sizeof(stream{}); got != want {
		t.Errorf("a stream is %d bytes, want %d", got, want)
	}
	if got := unsafe.Sizeof(StreamMem{}); got != want {
		t.Errorf("StreamMem is %d bytes, want the stream's %d", got, want)
	}
}

// TestFastSourceFillsItsSizeClass pins the vector a stream holds to
// 4,864 bytes, a Go size class of its own, on 64- and 32-bit builds
// alike: packed cursors and the 607 words. With int cursors it was
// 4,880 bytes, which the allocator rounds up to 5,376.
func TestFastSourceFillsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(fastSource{}); got != 4864 {
		t.Errorf("a fastSource is %d bytes, want 4864", got)
	}
}
