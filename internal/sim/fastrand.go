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
// would otherwise have to hash word by word.
type fastSource struct {
	tap, feed int
	laps      int // times tap has wrapped: draws = rngLen·laps − tap
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
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.laps = 0
	x0 := lcgSeed0(seed)
	for i := range s.vec {
		s.vec[i] = int64(lcgWord(x0, i) ^ rngCooked[i])
	}
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
			k = int(n)
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
func (s *fastSource) draws() uint64 { return uint64(rngLen*s.laps - s.tap) }

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

// verifyFastSource proves the replica on a spread of seeds: every draw of
// the first few vec laps must match the stdlib source bit-for-bit.
func verifyFastSource() bool {
	seeds := []int64{0, 1, 2, -7, seedBase, lcgM, lcgM + 1, 1<<62 + 12345, -1 << 40}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := newFastSource(seed)
		for k := 0; k < 2*rngLen; k++ {
			if got.Uint64() != ref.Uint64() {
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
