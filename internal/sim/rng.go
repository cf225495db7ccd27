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

	// recs records every created stream in creation order, each with the
	// source it draws from. Creation order is deterministic (stream
	// creation is itself simulation work), so the record doubles as the
	// canonical iteration order for checkpoint capture.
	recs []streamRec
}

// streamRec remembers one created stream: one Stream made is st, one
// seeded in caller-owned memory draws from src. A parked stream has
// neither: its generator was handed back and n holds the draw count it
// had, which with the id is all it takes to rebuild it (see Park).
type streamRec struct {
	id  uint64
	src *fastSource
	st  *stream
	n   uint64
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
// fastrand.go — identical draws. It starts virgin, drawing its first
// rngTap values from the seed alone; only a stream that draws more takes
// the 607-word vector.
func (s *Streams) Stream(id uint64) *rand.Rand {
	st := newStream(int64(mix(s.seed, id)))
	s.recs = append(s.recs, streamRec{id: id, st: st})
	return &st.rng
}

// retired holds the vectors of retired factories' materialised streams
// for the streams this process materialises next: 5 KB a vector, and a
// batch worker materialises a few hundred a cell. Seeding overwrites
// every word a stream draws from, so nothing of its last use carries
// over.
var retired sync.Pool

// Retire hands the vector of every stream Stream made that outgrew its
// virgin steps to the streams materialised after s. No stream s made
// may be drawn from again, and s must not be used again: call it once
// the world the streams belong to is finished with.
func (s *Streams) Retire() {
	for _, rec := range s.recs {
		if st := rec.st; st != nil && st.full != nil {
			retired.Put(st.full)
		}
	}
	s.recs = nil
}

// StreamMem is caller-owned storage for one stream: the generator's
// 607-word state and the rand.Rand drawing from it, laid out so a
// component that embeds one keeps its stream in its own allocation
// instead of two more. The zero value is unseeded; see Streams.SeedAt.
type StreamMem struct {
	rng rand.Rand
	src fastSource
	rec int // the stream's record in its factory
}

// SeedAt is StreamAt into caller-owned memory: it seeds mem in place as
// the stream for (kind, index) and returns the generator living in it —
// the same sequence StreamAt(kind, index) draws, the same record in
// creation order, no allocation. mem must stay where it is for as long
// as the stream is in use (the returned pointer and the factory's record
// both alias it).
func (s *Streams) SeedAt(mem *StreamMem, kind, index uint64) *rand.Rand {
	id := mix(kind, index)
	mem.src.Seed(int64(mix(s.seed, id)))
	mem.rec = len(s.recs)
	s.recs = append(s.recs, streamRec{id: id, src: &mem.src})
	mem.rng = *rand.New(&mem.src)
	return &mem.rng
}

// Peek reports the word the generator in mem will produce at its next
// step, without taking the step: it reads the cursor and the two vector
// words that step adds, and writes nothing. A caller about to draw from
// a cold stream calls it ahead of time so those reads miss the cache
// early (channel.Model.Warm). Meaningful only for a stream SeedAt or
// Revive put in mem; on a zero mem it reads zeroed storage and is just as
// harmless.
func (mem *StreamMem) Peek() uint64 {
	return mem.src.peek()
}

// ParkedStream names a parked stream's record in its factory.
type ParkedStream struct{ rec int }

// Park hands back the generator seeded in mem: the stream's record
// freezes at its current draw count and stops pointing into mem, which
// the caller may then reuse for any other stream. EachState keeps
// reporting the frozen count. Revive rebuilds the identical generator.
// Only for a stream SeedAt or Revive put in mem.
func (s *Streams) Park(mem *StreamMem) ParkedStream {
	r := &s.recs[mem.rec]
	r.n = mem.src.draws()
	r.src = nil
	return ParkedStream{mem.rec}
}

// Revive rebuilds a parked stream in mem and returns the generator
// living there: reseeded from the record's id and stepped as many times
// as it had drawn, it is in exactly the state it was parked in — a
// seeded additive generator stepped n times is in one state — so it
// draws the values it would have drawn had it never been parked. The
// record points into mem again; mem must stay put as for SeedAt.
func (s *Streams) Revive(mem *StreamMem, p ParkedStream) *rand.Rand {
	r := &s.recs[p.rec]
	mem.src.Seed(int64(mix(s.seed, r.id)))
	mem.src.skip(r.n)
	mem.rec = p.rec
	r.src = &mem.src
	mem.rng = *rand.New(&mem.src)
	return &mem.rng
}

// EachState shows fn the state of every stream created so far, in
// creation order: the component id it was created under and how many
// values have been drawn from its generator since seeding. The id fixes
// the seed and a seeded additive generator stepped draws times is in
// exactly one state, so the pair stands for the generator's cursor and
// 607-word vector without reading them. A parked stream shows the count
// it was parked at. No stream advances.
func (s *Streams) EachState(fn func(id, draws uint64)) {
	for _, rec := range s.recs {
		switch {
		case rec.st != nil:
			fn(rec.id, rec.st.draws())
		case rec.src != nil:
			fn(rec.id, rec.src.draws())
		default:
			fn(rec.id, rec.n)
		}
	}
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
