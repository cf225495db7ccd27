package sim

import "math/rand"

// This file makes stream *creation* cheap without changing a single drawn
// value. math/rand's NewSource seeds a 607-word additive generator by
// walking a Park–Miller LCG (x' = 48271·x mod 2³¹−1) through 1841 serial
// steps — a dependency chain the CPU cannot pipeline, and the dominant
// cost of creating the thousands of lazily-born fading-link streams a
// trial population needs. But the k-th value of a Lehmer chain is just
// 48271^k·x₀ mod M: with the multiplier powers precomputed, all 1841
// values are independent modmuls of the same x₀, which the CPU overlaps
// freely. fastSource reproduces math/rand's rngSource bit-for-bit — the
// identical vec, tap/feed walk, and Uint64 mixing — so every rand.Rand
// built on top draws the identical sequence. It is the only generator
// streams ride; an init-time self-check against math/rand itself panics
// rather than let a stale replica draw one value.

const (
	lcgM = 1<<31 - 1 // Park–Miller modulus (Mersenne prime 2³¹−1)
	lcgA = 48271     // Park–Miller multiplier (the MINSTD revision math/rand uses)

	rngLen   = 607 // additive generator degree, as in math/rand
	rngTap   = 273 // additive generator tap, as in math/rand
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	seedBase = 89482311 // math/rand's replacement for a zero LCG seed

	// lcgSteps is how many LCG values one seeding consumes: a 20-step
	// warmup plus three values per vec word.
	lcgSteps = 20 + 3*rngLen
)

// lcgPow[k] = 48271^k mod M, for jumping straight to the k-th chain value.
var lcgPow [lcgSteps + 1]int64

// rngCooked is math/rand's additive-entropy table, recovered at init from
// a stdlib source's outputs (see recoverCooked); fastSource xors it into
// the seeded vec exactly as rngSource does.
var rngCooked [rngLen]uint64

// mulmod returns a·b mod 2³¹−1 for canonical inputs in [0, M). The
// product fits int64; two shift-and-add folds reduce it (Mersenne
// modulus), landing in the same canonical range the Schrage-form LCG in
// math/rand produces.
func mulmod(a, b int64) int64 {
	p := a * b
	r := (p >> 31) + (p & lcgM)
	r = (r >> 31) + (r & lcgM)
	if r >= lcgM {
		r -= lcgM
	}
	return r
}

// lcgSeed0 maps an int64 seed to the LCG's starting value, exactly as
// rngSource.Seed does.
func lcgSeed0(seed int64) int64 {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = seedBase
	}
	return seed
}

// lcgWord is the LCG part of seeded vec word i: three chain values
// (bits 40, 20, 0) jumped to from x0 instead of chained.
func lcgWord(x0 int64, i int) uint64 {
	base := 20 + 3*i
	u := uint64(mulmod(lcgPow[base+1], x0)) << 40
	u ^= uint64(mulmod(lcgPow[base+2], x0)) << 20
	u ^= uint64(mulmod(lcgPow[base+3], x0))
	return u
}

// fastSource is a bit-exact replica of math/rand's rngSource with O(1)-
// depth seeding. An additive generator seeded with s and stepped k times
// is in exactly one state, so (seed, draws) names the state a checkpoint
// would otherwise have to hash word by word. The cursors are packed so
// the whole source is 4,864 bytes, a Go size class on its own
// (TestFastSourceFillsItsSizeClass); with int cursors it would round up
// to the 5,376-byte class.
type fastSource struct {
	tap, feed int16 // both < rngLen
	laps      int32 // times tap has wrapped: draws = rngLen·laps − tap
	vec       [rngLen]int64
}

var _ rand.Source64 = (*fastSource)(nil)

// newFastSource returns a seeded source whose sequence is identical to
// rand.NewSource(seed)'s.
func newFastSource(seed int64) *fastSource {
	s := &fastSource{}
	s.Seed(seed)
	return s
}

// Seed re-seeds, reproducing rngSource.Seed's vec verbatim: vec[i] mixes
// three LCG values with the cooked table.
func (s *fastSource) Seed(seed int64) { s.seedX0(lcgSeed0(seed)) }

// seedX0 is Seed for the LCG start x0 = lcgSeed0(seed).
func (s *fastSource) seedX0(x0 int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.laps = 0
	for i := range s.vec {
		s.vec[i] = seedWord(x0, i)
	}
}

// seedWord is word i of the vec a seed with LCG start x0 seeds.
func seedWord(x0 int64, i int) int64 {
	return int64(lcgWord(x0, i) ^ rngCooked[i])
}

// Uint64 mirrors rngSource.Uint64: one additive-generator step. The
// draw count rides the tap's wrap — once per 607 steps — so counting adds
// nothing to a step.
func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
		s.laps++
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// peek returns what the next Uint64 will, without stepping: the same
// cursor walk on copies of tap and feed, and a read of the two words.
func (s *fastSource) peek() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	return uint64(s.vec[feed] + s.vec[tap])
}

// skip advances the generator n steps, exactly as n calls of Uint64
// would, without producing the values. Step i adds vec[tap-i] into
// vec[feed-i], and feed trails tap by 273 words or leads it by 334, so
// over at most 273 steps short of a wrap of either cursor the words
// written are not among those read: such a block is one add of two
// disjoint slices of the vector, with no wrap check per step. Only a
// wrapping step goes through Uint64.
func (s *fastSource) skip(n uint64) {
	for n > 0 {
		k := min(s.tap, s.feed, rngTap)
		if k == 0 {
			s.Uint64()
			n--
			continue
		}
		if uint64(k) > n {
			k = int16(n)
		}
		t := s.vec[s.tap-k : s.tap]
		f := s.vec[s.feed-k : s.feed]
		f = f[:len(t)]
		for i := range t {
			f[i] += t[i]
		}
		s.tap -= k
		s.feed -= k
		n -= uint64(k)
	}
}

// Int63 mirrors rngSource.Int63.
func (s *fastSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// draws reports how many steps the generator has taken since Seed.
func (s *fastSource) draws() uint64 { return uint64(rngLen*int64(s.laps) - int64(s.tap)) }

// recoverCooked derives math/rand's cooked entropy table from the first
// rngLen outputs of one stdlib source, read through its public Uint64.
// Those steps write each vec word exactly once (feed visits every index
// in one lap), so the outputs are the vector after them; undoing the
// steps in reverse, vec[feed] -= vec[tap], gives back the seeded vector,
// and xor-ing out the known LCG part leaves the table.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	s := fastSource{feed: rngLen - rngTap}
	for range rngLen {
		s.Uint64() // walks the cursors; the word it writes is replaced
		s.vec[s.feed] = int64(src.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % rngLen
		s.feed = (s.feed + 1) % rngLen
	}
	x0 := lcgSeed0(1)
	for i := range rngCooked {
		rngCooked[i] = uint64(s.vec[i]) ^ lcgWord(x0, i)
	}
}

// stream is one stream a Streams hands out (Stream, SeedAt): its
// rand.Rand, and the generator that rand.Rand draws from, which either
// holds its 607-word vector (full) or holds none and keeps only its draw
// count k. A stream without a vector draws on itself. While k < rngTap
// it needs none: step k (from 1) of a fresh generator adds vec[607−k]
// into vec[334−k], so for k ≤ rngTap the feed cursor walks 333…61 and
// the tap 606…334, each step reads two words no earlier step wrote, and
// draw k is seedWord(334−k) + seedWord(607−k), six jumped-to LCG values.
// Past that it takes its vector back (hold) and draws from it. A stream
// from Stream starts with no vector and so holds one only from its
// 274th draw; one from SeedAt holds its vector from birth.
// StreamMem.Release drops the vector again and keeps the count, which
// with the seed is all hold needs to rebuild it.
type stream struct {
	rng  rand.Rand   // draws from the stream without a vector, from full with one
	x0   uint32      // the seed's LCG start, lcgSeed0(seed) < 2³¹−1
	k    uint64      // draws made, while the stream holds no vector
	full *fastSource // the vector; nil when the stream holds none
}

var _ rand.Source64 = (*stream)(nil)

// newStream returns a stream for seed holding no vector, drawing what
// rand.New(rand.NewSource(seed)) draws.
func newStream(seed int64) *stream {
	st := &stream{x0: uint32(lcgSeed0(seed))}
	st.rng = *rand.New(st)
	return st
}

// Uint64 is one step of a stream without a vector; rand.Rand calls it
// only while the stream holds none.
func (st *stream) Uint64() uint64 { return st.step() }

// Int63 mirrors rngSource.Int63.
func (st *stream) Int63() int64 { return int64(st.step() & rngMask) }

// step takes a step from the seed words, or, when those are spent, takes
// the stream's vector back and steps it.
func (st *stream) step() uint64 {
	if st.k < rngTap {
		st.k++
		x0, k := int64(st.x0), int(st.k)
		return uint64(seedWord(x0, rngLen-rngTap-k) + seedWord(x0, rngLen-k))
	}
	return st.hold().Uint64()
}

// hold gives the stream its vector: one off the retired pool or a new
// one, seeded and stepped k times — a seeded additive generator stepped
// k times is in exactly one state, so the stream draws on as if it had
// always held it. Its rand.Rand draws from the vector from then on.
func (st *stream) hold() *fastSource {
	f, _ := retired.Get().(*fastSource)
	if f == nil {
		f = new(fastSource)
	}
	f.seedX0(int64(st.x0))
	f.skip(st.k)
	st.full = f
	// No component reads bytes through rand.Rand.Read, whose buffered
	// bytes this reset would drop.
	st.rng = *rand.New(f)
	return f
}

// Seed re-seeds a stream holding no vector; one that holds its vector is
// re-seeded through its rand.Rand, which draws from the vector.
func (st *stream) Seed(seed int64) { st.x0, st.k = uint32(lcgSeed0(seed)), 0 }

// draws reports how many steps the stream has taken since it was seeded.
func (st *stream) draws() uint64 {
	if st.full != nil {
		return st.full.draws()
	}
	return st.k
}

// verifyFastSource proves the replica on a spread of seeds: every draw of
// the first few vec laps must match the stdlib source bit-for-bit, and
// so must every draw a virgin stream makes without its vector — the
// seed-word identity it rests on. Where a virgin stream hands over to
// its full generator is plain code, held by TestVirginStreamLaw.
func verifyFastSource() bool {
	seeds := []int64{0, 1, 2, -7, seedBase, lcgM, lcgM + 1, 1<<62 + 12345, -1 << 40}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := newFastSource(seed)
		virgin := newStream(seed)
		for k := 0; k < 2*rngLen; k++ {
			want := ref.Uint64()
			if got.Uint64() != want || k < rngTap && virgin.Uint64() != want {
				return false
			}
		}
	}
	return true
}

func init() {
	p := int64(1)
	for k := 1; k <= lcgSteps; k++ {
		p = mulmod(p, lcgA)
		lcgPow[k] = p
	}
	recoverCooked()
	// A replica that disagrees with math/rand would move every drawn value
	// of every run. The Go 1 promise freezes math/rand's seeded sequences,
	// so a disagreement can only be a bug here, and it stops the program.
	if !verifyFastSource() {
		panic("sim: fastSource does not reproduce math/rand's seeded source")
	}
}
