package sim

import "math/rand"

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

	// recs records every created stream in creation order, each with its
	// concrete source when the fast replica is in use. Creation order is
	// deterministic (stream creation is itself simulation work), so the
	// record doubles as the canonical iteration order for checkpoint
	// capture. Sources created through the stock math/rand fallback are
	// recorded with a nil src — their internal state is unreadable, and
	// EachState reports the whole factory as unexportable.
	recs []streamRec
}

// streamRec remembers one created stream.
type streamRec struct {
	id  uint64
	src *fastSource // nil when the stock fallback source was used
}

// NewStreams returns a stream factory for the given trial seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: uint64(seed)}
}

// Stream returns the deterministic stream for component id. Calling it
// twice with the same id returns two generators with identical sequences;
// callers should fetch each component's stream exactly once.
//
// The generator is math/rand's lagged-Fibonacci source, seeded through
// the jump-ahead replica in fastrand.go when its init-time verification
// passed — identical draws, a fraction of the seeding cost that
// dominates lazy fading-link creation.
func (s *Streams) Stream(id uint64) *rand.Rand {
	src := newSource(int64(mix(s.seed, id)))
	fs, _ := src.(*fastSource)
	s.recs = append(s.recs, streamRec{id: id, src: fs})
	return rand.New(src)
}

// StreamMem is caller-owned storage for one stream: the generator's
// 607-word state and the rand.Rand drawing from it, laid out so a
// component that embeds one keeps its stream in its own allocation
// instead of two more. The zero value is unseeded; see Streams.SeedAt.
type StreamMem struct {
	rng rand.Rand
	src fastSource
}

// SeedAt is StreamAt into caller-owned memory: it seeds mem in place as
// the stream for (kind, index) and returns the generator living in it —
// the same sequence StreamAt(kind, index) draws, the same record in
// creation order, no allocation. mem must stay where it is for as long
// as the stream is in use (the returned pointer and EachState both alias
// it). When the fast replica failed its self-check the stream rides a
// stock math/rand source allocated on the side, as Stream's does.
func (s *Streams) SeedAt(mem *StreamMem, kind, index uint64) *rand.Rand {
	id := mix(kind, index)
	seed := int64(mix(s.seed, id))
	rec := streamRec{id: id}
	var src rand.Source
	if fastSourceOK {
		mem.src.Seed(seed)
		rec.src, src = &mem.src, &mem.src
	} else {
		src = rand.NewSource(seed)
	}
	s.recs = append(s.recs, rec)
	mem.rng = *rand.New(src)
	return &mem.rng
}

// EachState lends fn the live state of every stream created so far, in
// creation order: the component id it was created under and the
// lagged-Fibonacci generator's tap/feed cursor and 607-word vector,
// exactly as math/rand's source holds them. Nothing is copied and no
// stream advances; vec aliases the generator's own state, so fn must
// neither write through it nor keep it past its return. ok is false, and
// nothing is visited, when any stream rode the stock math/rand fallback
// (its state cannot be read) — the caller should report checkpointing
// unsupported rather than write a snapshot that cannot be verified.
func (s *Streams) EachState(fn func(id uint64, tap, feed int, vec []int64)) (ok bool) {
	for _, rec := range s.recs {
		if rec.src == nil {
			return false
		}
	}
	for _, rec := range s.recs {
		fn(rec.id, rec.src.tap, rec.src.feed, rec.src.vec[:])
	}
	return true
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
