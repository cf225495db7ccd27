package channel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/sim"
)

// replay is a waypoint terminal that can be asked about the past.
// mobility.Node answers only non-decreasing instants (it discards the
// legs behind it), so a query that goes backwards replays the trajectory
// from its seed: Position is then a pure function of the instant, which
// is what lets the law tests below jump around in time.
type replay struct {
	mk   func() *mobility.Node
	n    *mobility.Node
	last time.Duration
}

func newReplay(mk func() *mobility.Node) *replay { return &replay{mk: mk, n: mk()} }

func (r *replay) seek(at time.Duration) *mobility.Node {
	if at < r.last {
		r.n = r.mk()
	}
	r.last = at
	return r.n
}

func (r *replay) Position(at time.Duration) geom.Point { return r.seek(at).Position(at) }
func (r *replay) PositionStable(at time.Duration) (geom.Point, time.Duration) {
	return r.seek(at).PositionStable(at)
}
func (r *replay) SpeedStable(at time.Duration) (float64, time.Duration) {
	return r.seek(at).SpeedStable(at)
}
func (r *replay) SpeedLimit() float64 { return r.n.SpeedLimit() }

// unbounded hides that a replay is a Mover: the snapshot must then treat
// it as a plain Positioner with no drift bound and never serve it from a
// stale grid.
type unbounded struct{ r *replay }

func (u unbounded) Position(at time.Duration) geom.Point { return u.r.Position(at) }

// kineticField builds n replayable waypoint terminals at the paper's
// density and default speeds (benchField, 10 m/s, 3 s pauses); terminal
// nolimit, if in range, is wrapped as a plain Positioner.
func kineticField(seed int64, n, nolimit int) (*Model, []*replay) {
	mcfg := mobility.Config{Field: benchField(n), MaxSpeed: 10, Pause: 3 * time.Second}
	reps := make([]*replay, n)
	pos := make([]Positioner, n)
	for i := range pos {
		i := i
		reps[i] = newReplay(func() *mobility.Node {
			return mobility.NewNode(mcfg, sim.NewStreams(seed).StreamAt(0x_30B1, uint64(i)))
		})
		pos[i] = reps[i]
		if i == nolimit {
			pos[i] = unbounded{reps[i]}
		}
	}
	return NewModel(DefaultConfig(), sim.NewStreams(seed), pos), reps
}

// kineticWalk is the udpx-style loop behind the law tests: steps random
// (terminal, instant) picks over one field, each handed to check. Time
// mostly advances by a log-uniform microsecond-to-second step, sometimes
// goes backwards, sometimes lands exactly on a leg/pause boundary of some
// terminal, and sometimes within a nanosecond of the instant the current
// grid build runs out of drift budget. Terminals come mostly from a small
// hot set, as a flood's do, so one terminal is asked again within the
// window its kinetic list holds for.
func kineticWalk(m *Model, reps []*replay, seed int64, steps int, check func(i int, at time.Duration)) {
	rng := rand.New(rand.NewSource(seed))
	n := len(reps)
	hot := make([]int, 4)
	at := time.Duration(0)
	for step := 0; step < steps; step++ {
		if step%64 == 0 {
			for k := range hot {
				hot[k] = rng.Intn(n)
			}
		}
		switch p := rng.Intn(20); {
		case p < 2: // backwards, by up to 50 ms
			at -= time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		case p < 4: // exactly the next departure, arrival or end of pause, if one is near
			r := reps[rng.Intn(n)]
			_, edge := r.n.SpeedStable(r.last)
			if edge < at+5*time.Second { // a crawling leg ends hours away
				at = edge
			}
		case p < 6: // the last instants the build serves, and the first it does not
			if s := m.snap; s.gridBuilt && s.gridVmax > 0 && !math.IsInf(s.gridVmax, 1) {
				edge := s.gridAt + time.Duration(s.maxSlack/s.gridVmax*float64(time.Second))
				at = edge + time.Duration(rng.Intn(5)-2)
			}
		default: // 1 µs … 1 s, log-uniform
			at += time.Duration(math.Pow(10, 3+6*rng.Float64()))
		}
		if at < 0 {
			at = 0
		}
		i := hot[rng.Intn(len(hot))]
		if rng.Intn(5) == 0 {
			i = rng.Intn(n)
		}
		check(i, at)
	}
}

// kineticReady reports whether Neighbors(i, at) is about to be answered
// from i's kinetic list. It mirrors the reuse rule from outside, so the
// tests can insist the walk really exercises the path they are about.
func kineticReady(m *Model, i int, at time.Duration) bool {
	s := m.snap
	served := s.gridBuilt && at > s.gridAt && at >= s.gridUntil &&
		s.gridVmax*(at-s.gridAt).Seconds() <= s.maxSlack
	return served && m.down == nil && s.kinStamp[i] == s.candGen && s.kinFrom[i] <= at && at < s.kinUntil[i]
}

// checkNeighborhood demands the three faces of one question agree at
// (i, at): the grid-backed scan equals the brute scan, InRange is exactly
// membership of it, and Interferers omits nobody whose exact distance is
// within twice the radio range (i itself included).
func checkNeighborhood(t *testing.T, m *Model, rng *rand.Rand, i int, at time.Duration, buf *[3][]int) {
	t.Helper()
	got := m.Neighbors(i, at, buf[0][:0])
	want := m.bruteNeighbors(i, at, buf[1][:0])
	irf := m.Interferers(i, at, buf[2][:0])
	buf[0], buf[1], buf[2] = got, want, irf
	if !sameInts(got, want) {
		t.Fatalf("Neighbors(%d, %v) = %v, brute force says %v", i, at, got, want)
	}
	n := m.N()
	member := make(map[int]bool, len(got))
	for _, j := range got {
		member[j] = true
	}
	probe := func(j int) {
		if j != i && m.InRange(i, j, at) != member[j] {
			t.Fatalf("InRange(%d, %d, %v) = %v, but Neighbors(%d, %v) = %v", i, j, at, !member[j], i, at, got)
		}
	}
	for _, j := range got {
		probe(j)
	}
	for k := 0; k < 16; k++ {
		probe(rng.Intn(n))
	}
	listed := make(map[int]bool, len(irf))
	for _, j := range irf {
		listed[j] = true
	}
	pi := m.pos[i].Position(at)
	for j := 0; j < n; j++ {
		if d := pi.DistanceTo(m.pos[j].Position(at)); d <= 2*m.cfg.Range && !listed[j] {
			t.Fatalf("Interferers(%d, %v) omits %d at %.3f m (twice the range is %.0f m)", i, at, j, d, 2*m.cfg.Range)
		}
	}
}

// TestKineticNeighborsEqualBrute is the law behind the kinetic neighbour
// lists and the per-build interference lists: over 10,000 random
// (terminal, instant) picks per field size, every answer served from a
// list kept since an earlier scan is the answer the exact pairwise check
// gives at that instant.
func TestKineticNeighborsEqualBrute(t *testing.T) {
	for _, n := range []int{50, 500} {
		n := n
		t.Run(sizeLabel(n), func(t *testing.T) {
			t.Parallel()
			steps := 10000
			if testing.Short() {
				steps = 2000
			}
			m, reps := kineticField(int64(n), n, -1)
			rng := rand.New(rand.NewSource(99))
			var buf [3][]int
			reused := 0
			kineticWalk(m, reps, int64(n)+1, steps, func(i int, at time.Duration) {
				m.sync(at)
				if kineticReady(m, i, at) {
					reused++
				}
				checkNeighborhood(t, m, rng, i, at, &buf)
			})
			if reused < steps/10 {
				t.Errorf("only %d of %d scans were served from a kinetic list: the walk no longer exercises them", reused, steps)
			}
		})
	}
}

// TestKineticListsHonourOutageFlips: an outage is not kinetics — it flips
// at an instant no speed bound predicts — so with an oracle installed no
// list may be reused, not even one recorded before the oracle arrived.
// The oracle here rolls millisecond-scale silences over the field, so
// flips land between two queries of one terminal inside the window a
// kinetic list holds for.
func TestKineticListsHonourOutageFlips(t *testing.T) {
	const n = 50
	m, reps := kineticField(5, n, -1)
	rng := rand.New(rand.NewSource(7))
	var buf [3][]int
	step, bypassed := 0, 0
	oracle := func(i int, at time.Duration) bool {
		return (int(at/(3*time.Millisecond))+i)%4 == 0
	}
	kineticWalk(m, reps, 6, 10000, func(i int, at time.Duration) {
		// The oracle comes and goes, so lists get recorded while it is away
		// and are on offer when it is back.
		if step%250 == 0 {
			if step/250%2 == 1 {
				m.SetOutage(oracle)
			} else {
				m.SetOutage(nil)
			}
		}
		step++
		m.sync(at)
		s := m.snap
		if m.down != nil && s.kinStamp[i] == s.candGen && s.kinFrom[i] <= at && at < s.kinUntil[i] {
			bypassed++
		}
		checkNeighborhood(t, m, rng, i, at, &buf)
	})
	if bypassed == 0 {
		t.Error("no query under the oracle fell inside a kept list's window: the test no longer reaches the bypass")
	}
}

// TestKineticListsNeedSpeedBound: one Positioner without a SpeedLimit
// makes the whole field's drift unbounded, so every new instant rebuilds
// the grid and nothing is ever served from a kept list.
func TestKineticListsNeedSpeedBound(t *testing.T) {
	const n = 50
	m, reps := kineticField(9, n, 17)
	rng := rand.New(rand.NewSource(3))
	var buf [3][]int
	kineticWalk(m, reps, 10, 10000, func(i int, at time.Duration) {
		m.sync(at)
		if kineticReady(m, i, at) {
			t.Fatalf("a kinetic list is on offer at %v with an unbounded mover in the field", at)
		}
		checkNeighborhood(t, m, rng, i, at, &buf)
	})
}
