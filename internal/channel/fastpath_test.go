package channel

import (
	"math/rand"
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/sim"
)

// refWorld recomputes the channel from first principles, with no Model
// code in the loop: its own mobility trajectories (identical streams),
// its own lazily created Links on the model's pair-index streams, and
// the documented outage semantics (a silenced pair advances its link at
// an out-of-range distance). Driving a Model and a refWorld through the
// same query schedule must produce identical answers — the memoized,
// batched fast path against the unmemoized definition.
type refWorld struct {
	cfg   Config
	nodes []*mobility.Node
	pins  []geom.Point // non-nil entries override nodes (parked terminals)
	parkd []bool
	links []*Link
	strms *sim.Streams
	down  func(i int, at time.Duration) bool
	n     int
}

func (r *refWorld) pos(i int, at time.Duration) geom.Point {
	if r.parkd[i] {
		return r.pins[i]
	}
	return r.nodes[i].Position(at)
}

func (r *refWorld) speed(i int, at time.Duration) float64 {
	if r.parkd[i] {
		return 0
	}
	return r.nodes[i].Speed(at)
}

func (r *refWorld) isDown(i int, at time.Duration) bool {
	return r.down != nil && r.down(i, at)
}

func (r *refWorld) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*r.n-i-1)/2 + (j - i - 1)
}

func (r *refWorld) link(i, j int) *Link {
	idx := r.pairIndex(i, j)
	if r.links[idx] == nil {
		r.links[idx] = new(Link)
		r.links[idx].init(&r.cfg, r.strms.StreamAt(streamKindChannel, uint64(idx)))
	}
	return r.links[idx]
}

// class mirrors Model.Class's definition verbatim.
func (r *refWorld) class(i, j int, at time.Duration) Class {
	d := r.pos(i, at).DistanceTo(r.pos(j, at))
	if r.isDown(i, at) || r.isDown(j, at) {
		d = r.cfg.Range + 1
	}
	rel := r.speed(i, at) + r.speed(j, at)
	return r.link(i, j).ClassAt(d, rel, at)
}

// neighbors mirrors the brute reference scan.
func (r *refWorld) neighbors(i int, at time.Duration, dst []int) []int {
	if r.isDown(i, at) {
		return dst
	}
	pi := r.pos(i, at)
	for j := 0; j < r.n; j++ {
		if j == i || r.isDown(j, at) {
			continue
		}
		if pi.DistanceTo(r.pos(j, at)) <= r.cfg.Range {
			dst = append(dst, j)
		}
	}
	return dst
}

// buildPair constructs a Model and a refWorld over identical terminals:
// same mobility streams, same parked pins, same outage oracle.
func buildPair(seed int64, n int, outage func(i int, at time.Duration) bool) (*Model, *refWorld) {
	mcfg := mobility.Config{
		Field:    geom.Field{Width: 1100, Height: 800},
		MaxSpeed: 11,
		Pause:    2 * time.Second,
	}
	mkNodes := func(streams *sim.Streams) ([]Positioner, *refWorld) {
		r := &refWorld{
			cfg:   DefaultConfig(),
			n:     n,
			nodes: make([]*mobility.Node, n),
			pins:  make([]geom.Point, n),
			parkd: make([]bool, n),
			links: make([]*Link, n*(n-1)/2),
			strms: streams,
			down:  outage,
		}
		pos := make([]Positioner, n)
		for i := range pos {
			if i%6 == 5 {
				p := geom.Point{X: float64((i * 173) % 1100), Y: float64((i * 229) % 800)}
				r.parkd[i], r.pins[i] = true, p
				pos[i] = parked(p)
			} else {
				nd := mobility.NewNode(mcfg, streams.StreamAt(0x_AB, uint64(i)))
				r.nodes[i] = nd
				pos[i] = nd
			}
		}
		return pos, r
	}

	fastStreams := sim.NewStreams(seed)
	pos, _ := mkNodes(fastStreams)
	m := NewModel(DefaultConfig(), fastStreams, pos)
	if outage != nil {
		m.SetOutage(outage)
	}

	refStreams := sim.NewStreams(seed)
	_, ref := mkNodes(refStreams)
	return m, ref
}

// TestFastPathMatchesUnmemoizedReference drives the memoized/batched
// query surface and the from-first-principles reference through one
// randomized schedule: Neighbors sweeps each followed by the class toward
// every neighbour, individual Class and InRange probes, and same-instant
// re-queries, over a mixed moving/parked field
// with rolling outage windows. Steps are small enough that most sweeps
// hit the stale-grid (nonzero slack) path, and the walk is long enough
// for fading to cross quantizer boundaries both ways, exercising the
// hysteresis upgrade hold. Every answer must be identical.
func TestFastPathMatchesUnmemoizedReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		const n = 48
		outage := func(i int, at time.Duration) bool {
			off := time.Duration(i%11) * 2 * time.Second
			return at >= off && at < off+1500*time.Millisecond
		}
		m, ref := buildPair(seed, n, outage)
		sched := rand.New(rand.NewSource(seed * 997))

		var nbr, refNbr []int
		for at := time.Duration(0); at <= 30*time.Second; at += time.Duration(50+sched.Intn(250)) * time.Millisecond {
			i := sched.Intn(n)
			switch sched.Intn(3) {
			case 0, 1: // sweep, classes included
				nbr = m.Neighbors(i, at, nbr[:0])
				refNbr = ref.neighbors(i, at, refNbr[:0])
				if !sameInts(nbr, refNbr) {
					t.Fatalf("seed %d at %v: Neighbors(%d) = %v, reference %v", seed, at, i, nbr, refNbr)
				}
				for _, j := range nbr {
					got, want := m.Class(i, j, at), ref.class(i, j, at)
					if got != want {
						t.Fatalf("seed %d at %v: class(%d,%d) = %v, reference %v",
							seed, at, i, j, got, want)
					}
					// Same-instant re-query must come from the cache and agree.
					if again := m.Class(i, j, at); again != got {
						t.Fatalf("seed %d at %v: cached re-query Class(%d,%d) = %v, sweep said %v",
							seed, at, i, j, again, got)
					}
					if sym := m.Class(j, i, at); sym != got {
						t.Fatalf("seed %d at %v: Class(%d,%d) = %v, symmetric %v",
							seed, at, j, i, sym, got)
					}
				}
			case 2: // individual probe of an arbitrary pair
				j := sched.Intn(n)
				if j == i {
					continue
				}
				got := m.Class(i, j, at)
				want := ref.class(i, j, at)
				if got != want {
					t.Fatalf("seed %d at %v: Class(%d,%d) = %v, reference %v", seed, at, i, j, got, want)
				}
				wd := ref.pos(i, at).DistanceTo(ref.pos(j, at))
				wantIn := !ref.isDown(i, at) && !ref.isDown(j, at) && wd <= ref.cfg.Range
				if gi := m.InRange(i, j, at); gi != wantIn {
					t.Fatalf("seed %d at %v: InRange(%d,%d) = %v, reference %v", seed, at, i, j, gi, wantIn)
				}
			}
		}
	}
}
