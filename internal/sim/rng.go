package sim

import (
	"math/rand"
	"sync"
)

// Streams derives independent, deterministic random number streams from a
// single trial seed. Every stochastic component of the simulator (each
// link's fading process, each node's mobility, each traffic flow, each MAC
// backoff source) obtains its own stream, keyed by a stable component
// identifier. This guarantees two properties the experiments rely on:
//
//  1. Reproducibility — a (seed, id) pair always yields the same sequence.
//  2. Isolation — adding a consumer, or reordering draws in one component,
//     never perturbs the sequences seen by other components, so protocol
//     comparisons run against identical mobility and fading sample paths.
type Streams struct {
	seed uint64

	// recs records every created stream in creation order. Creation
	// order is deterministic (stream creation is itself simulation
	// work), so the record doubles as the canonical iteration order for
	// checkpoint capture.
	recs []streamRec
}

// streamRec remembers one created stream and the id it was made under.
type streamRec struct {
	id uint64
	st *stream
}

// NewStreams returns a stream factory for the given trial seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: uint64(seed)}
}

// Stream returns the deterministic stream for component id. Calling it
// twice with the same id returns two generators with identical sequences;
// callers should fetch each component's stream exactly once.
//
// The generator is math/rand's lagged-Fibonacci source, replicated in
// fastrand.go — identical draws. It starts with no vector, drawing its
// first rngTap values from the seed alone; only a stream that draws more
// takes the 607-word vector.
func (s *Streams) Stream(id uint64) *rand.Rand {
	st := newStream(int64(mix(s.seed, id)))
	s.recs = append(s.recs, streamRec{id: id, st: st})
	return &st.rng
}

// retired holds the vectors streams have let go — released ones, and
// those of retired factories — for the streams this process gives a
// vector next: 4.75 KB a vector, and a batch worker hands out a few
// hundred a cell. Seeding overwrites every word a stream draws from, so
// nothing of its last use carries over.
var retired sync.Pool

// Retire hands the vector of every stream s made that holds one to the
// streams that take one after s. No stream s made may be drawn from
// again, and s must not be used again: call it once the world the
// streams belong to is finished with.
func (s *Streams) Retire() {
	for _, rec := range s.recs {
		if f := rec.st.full; f != nil {
			retired.Put(f)
		}
	}
	s.recs = nil
}

// StreamMem is caller-owned storage for one stream: the record Stream
// would allocate, so a component that embeds one keeps its stream in its
// own allocation. Its vector is an object of its own, taken and let go
// as the stream needs it. The zero value is unseeded; see Streams.SeedAt.
type StreamMem struct{ st stream }

// SeedAt is StreamAt into caller-owned memory: it seeds mem in place as
// the stream for (kind, index), gives it its vector at once, and returns
// the generator living in it — the same sequence StreamAt(kind, index)
// draws, the same record in creation order. mem must stay where it is
// for as long as the stream is in use (the returned pointer and the
// factory's record both alias it).
func (s *Streams) SeedAt(mem *StreamMem, kind, index uint64) *rand.Rand {
	id := mix(kind, index)
	st := &mem.st
	*st = stream{x0: uint32(lcgSeed0(int64(mix(s.seed, id))))}
	st.hold()
	s.recs = append(s.recs, streamRec{id: id, st: st})
	return &st.rng
}

// Release hands the stream's vector to the pool the next vectors are
// taken from and keeps its draw count: the stream holds 72 bytes until
// its next draw, which rebuilds the vector in the state it was released
// in, so the stream draws exactly what it would have drawn had it kept
// it. The generator SeedAt returned stays valid throughout. A stream
// holding no vector is left as it is.
func (mem *StreamMem) Release() {
	st := &mem.st
	if st.full == nil {
		return
	}
	st.k = st.full.draws()
	retired.Put(st.full)
	st.full = nil
	st.rng = *rand.New(st)
}

// Held reports whether the stream in mem holds its vector.
func (mem *StreamMem) Held() bool { return mem.st.full != nil }

// Peek reports the word the stream in mem will produce at its next step,
// without taking the step: it reads the cursor and the two vector words
// that step adds, and writes nothing. A caller about to draw from a cold
// stream calls it ahead of time so those reads miss the cache early
// (channel.Model.Warm). A stream holding no vector has nothing to read
// ahead: Peek reports 0.
func (mem *StreamMem) Peek() uint64 {
	if f := mem.st.full; f != nil {
		return f.peek()
	}
	return 0
}

// EachState shows fn the state of every stream created so far, in
// creation order: the component id it was created under and how many
// values have been drawn from its generator since seeding. The id fixes
// the seed and a seeded additive generator stepped draws times is in
// exactly one state, so the pair stands for the generator's cursor and
// 607-word vector without reading them, whether the stream holds its
// vector or not. No stream advances.
func (s *Streams) EachState(fn func(id, draws uint64)) {
	for _, rec := range s.recs {
		fn(rec.id, rec.st.draws())
	}
}

// Held reports how many of the streams created so far hold their
// vector.
func (s *Streams) Held() int {
	n := 0
	for _, rec := range s.recs {
		if rec.st.full != nil {
			n++
		}
	}
	return n
}

// Len reports how many streams have been created.
func (s *Streams) Len() int { return len(s.recs) }

// StreamAt is a convenience for two-part component identifiers, e.g.
// (streamKindChannel, linkIndex).
func (s *Streams) StreamAt(kind, index uint64) *rand.Rand {
	return s.Stream(mix(kind, index))
}

// mix combines two 64-bit values with the SplitMix64 finalizer, giving a
// well-dispersed seed even for small consecutive ids.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
