package sim

import (
	"math/rand"
	"reflect"
	"unsafe"
)

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
// built on top draws the identical sequence; an init-time self-check
// verifies this against math/rand itself and silently falls back to the
// stock source if the replication ever goes stale.

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
// an observed stdlib source (see recoverCooked); fastSource xors it into
// the seeded vec exactly as rngSource does.
var rngCooked [rngLen]uint64

// fastSourceOK reports whether the init-time self-check proved fastSource
// identical to math/rand's source. When false, Streams falls back to the
// stock rand.NewSource.
var fastSourceOK = false

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

// drawSource is a rand.Source64 that knows how many values it has
// produced since it was seeded. An additive generator seeded with s and
// stepped k times is in exactly one state, so (seed, draws) names the
// state a checkpoint would otherwise have to hash word by word.
type drawSource interface {
	rand.Source64
	draws() uint64
}

// fastSource is a bit-exact replica of math/rand's rngSource with O(1)-
// depth seeding.
type fastSource struct {
	tap, feed int
	laps      int // times tap has wrapped: draws = rngLen·laps − tap
	vec       [rngLen]int64
}

var _ drawSource = (*fastSource)(nil)

// newFastSource returns a seeded source whose sequence is identical to
// rand.NewSource(seed)'s.
func newFastSource(seed int64) *fastSource {
	s := &fastSource{}
	s.Seed(seed)
	return s
}

// Seed re-seeds, reproducing rngSource.Seed's vec verbatim: vec[i] mixes
// three LCG values (bits 40, 20, 0) with the cooked table. The LCG values
// are jumped to independently instead of chained.
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.laps = 0
	x0 := lcgSeed0(seed)
	for i := 0; i < rngLen; i++ {
		base := 20 + 3*i
		u := uint64(mulmod(lcgPow[base+1], x0)) << 40
		u ^= uint64(mulmod(lcgPow[base+2], x0)) << 20
		u ^= uint64(mulmod(lcgPow[base+3], x0))
		u ^= rngCooked[i]
		s.vec[i] = int64(u)
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

// countedSource is the stock math/rand source behind a draw counter: what
// a stream rides when the replica failed its self-check. The stock
// source's state cannot be read, but its seed and its step count name it
// just as well.
type countedSource struct {
	src rand.Source64
	n   uint64
}

func (c *countedSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }
func (c *countedSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countedSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countedSource) draws() uint64   { return c.n }

// stdRngLayout mirrors math/rand.rngSource's memory layout, which has
// been stable since Go 1 (the package's sequences are frozen by the
// compatibility promise). Used only to observe one seeded vec at init;
// if the layout or algorithm ever changes, the self-check below fails
// and fastSource is simply not used.
type stdRngLayout struct {
	tap, feed int
	vec       [rngLen]int64
}

// recoverCooked derives math/rand's cooked entropy table by seeding one
// stdlib source and xor-ing out the known LCG contribution.
func recoverCooked() bool {
	src := rand.NewSource(1)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Ptr {
		return false
	}
	// Refuse the cast outright unless the pointee is at least as large as
	// the layout we are about to read — the value checks below would
	// themselves be out-of-bounds reads against a smaller future source.
	if v.Type().Elem().Size() < unsafe.Sizeof(stdRngLayout{}) {
		return false
	}
	std := (*stdRngLayout)(unsafe.Pointer(v.Pointer()))
	if std.tap != 0 || std.feed != rngLen-rngTap {
		return false // not the layout we expect: leave fastSource disabled
	}
	x0 := lcgSeed0(1)
	for i := 0; i < rngLen; i++ {
		base := 20 + 3*i
		u := uint64(mulmod(lcgPow[base+1], x0)) << 40
		u ^= uint64(mulmod(lcgPow[base+2], x0)) << 20
		u ^= uint64(mulmod(lcgPow[base+3], x0))
		rngCooked[i] = uint64(std.vec[i]) ^ u
	}
	return true
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
	fastSourceOK = recoverCooked() && verifyFastSource()
}

// newSource returns the fastest available source for seed whose sequence
// is bit-identical to rand.NewSource(seed)'s.
func newSource(seed int64) drawSource {
	if fastSourceOK {
		return newFastSource(seed)
	}
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}
