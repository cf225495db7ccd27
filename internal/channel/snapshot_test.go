package channel

import (
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/sim"
)

// parked is a Mover that never moves and says so, like the world
// package's pinned terminals: the snapshot layer may cache it forever.
type parked geom.Point

func (p parked) Position(time.Duration) geom.Point { return geom.Point(p) }
func (p parked) PositionStable(time.Duration) (geom.Point, time.Duration) {
	return geom.Point(p), mobility.StableForever
}
func (p parked) SpeedStable(time.Duration) (float64, time.Duration) {
	return 0, mobility.StableForever
}
func (p parked) SpeedLimit() float64 { return 0 }

// TestNeighborsMatchesBruteForce is the refactor's core invariant: the
// grid-backed Neighbors must return exactly what the retained pre-grid
// reference scan returns — same ids, same ascending order — at every
// instant of a mixed moving/parked field with rolling outage windows.
// The walk advances in small steps over tens of virtual seconds, so it
// crosses grid rebuilds and spends most queries on the stale-grid slack
// path (certain hits served without re-deriving positions, annulus
// candidates re-checked exactly).
func TestNeighborsMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		streams := sim.NewStreams(seed)
		mcfg := mobility.Config{
			Field:    geom.Field{Width: 1200, Height: 900},
			MaxSpeed: 12,
			Pause:    2 * time.Second,
		}
		const n = 60
		pos := make([]Positioner, n)
		for i := range pos {
			if i%5 == 4 {
				pos[i] = parked{X: float64((i * 157) % 1200), Y: float64((i * 211) % 900)}
			} else {
				pos[i] = mobility.NewNode(mcfg, streams.StreamAt(0x_AB, uint64(i)))
			}
		}
		m := NewModel(DefaultConfig(), streams, pos)
		m.SetOutage(func(i int, at time.Duration) bool {
			// Rolling silences: terminal i is down during a 3 s window that
			// starts at a phase derived from its id, repeating nothing.
			off := time.Duration(i%13) * 3 * time.Second
			return at >= off && at < off+3*time.Second
		})

		var gbuf, bbuf []int
		for at := time.Duration(0); at <= 40*time.Second; at += 217 * time.Millisecond {
			for i := 0; i < n; i++ {
				gbuf = m.Neighbors(i, at, gbuf[:0])
				bbuf = m.bruteNeighbors(i, at, bbuf[:0])
				if !sameInts(gbuf, bbuf) {
					t.Fatalf("seed %d: Neighbors(%d, %v) = %v, brute force says %v",
						seed, i, at, gbuf, bbuf)
				}
			}
		}
	}
}

// TestNeighborsStaticFieldNeverRebuilds pins every terminal: after the
// first query builds the grid, later instants must keep serving it with
// zero slack (the forever-stable boundary), still matching brute force.
func TestNeighborsStaticFieldNeverRebuilds(t *testing.T) {
	const n = 40
	pos := make([]Positioner, n)
	for i := range pos {
		pos[i] = parked{X: float64((i * 97) % 800), Y: float64((i * 131) % 800)}
	}
	m := NewModel(DefaultConfig(), sim.NewStreams(3), pos)

	var gbuf, bbuf []int
	for at := time.Duration(0); at <= time.Hour; at += 7 * time.Minute {
		for i := 0; i < n; i++ {
			gbuf = m.Neighbors(i, at, gbuf[:0])
			bbuf = m.bruteNeighbors(i, at, bbuf[:0])
			if !sameInts(gbuf, bbuf) {
				t.Fatalf("Neighbors(%d, %v) = %v, brute force says %v", i, at, gbuf, bbuf)
			}
		}
		if at > 0 && m.snap.gridAt != 0 {
			t.Fatalf("static field rebuilt its grid at %v", m.snap.gridAt)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
