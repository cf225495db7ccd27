package mobility

import (
	"math/rand"
	"testing"
	"time"
)

func TestStableUntilStaticForever(t *testing.T) {
	n := NewNode(testCfg(0), rand.New(rand.NewSource(1)))
	if _, got := n.PositionStable(time.Hour); got != StableForever {
		t.Fatalf("static node stable until %v, want forever", got)
	}
}

// TestStableUntilIsExact: over a long trajectory, the position at any
// instant strictly before the reported boundary equals the position at the
// query instant, and while moving the boundary is the instant itself.
func TestStableUntilIsExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := NewNode(testCfg(15), rand.New(rand.NewSource(seed)))
		probe := NewNode(testCfg(15), rand.New(rand.NewSource(seed))) // twin for lookahead
		for at := time.Duration(0); at < 5*time.Minute; at += 173 * time.Millisecond {
			p, until := n.PositionStable(at)
			if n.Moving(at) {
				if until != at {
					t.Fatalf("seed %d: moving at %v but stable until %v", seed, at, until)
				}
				continue
			}
			if until <= at {
				t.Fatalf("seed %d: paused at %v but boundary %v not in the future", seed, at, until)
			}
			// The twin checks the promise without disturbing n's laziness.
			mid := at + (until-at)/2
			if q := probe.Position(mid); q != p {
				t.Fatalf("seed %d: position drifted inside stable window [%v, %v): %v -> %v",
					seed, at, until, p, q)
			}
		}
	}
}

// TestStableUntilPauseBoundary: immediately at the reported boundary of a
// pause, the node departs (Moving becomes true within one leg, unless the
// next waypoint draw is degenerate).
func TestStableUntilPauseBoundary(t *testing.T) {
	n := NewNode(testCfg(15), rand.New(rand.NewSource(3)))
	at := 500 * time.Millisecond // inside the initial pause [0, 3s)
	_, until := n.PositionStable(at)
	if until != 3*time.Second {
		t.Fatalf("initial pause boundary = %v, want 3s", until)
	}
	if !n.Moving(until + time.Millisecond) {
		t.Fatalf("node still parked just after its pause boundary")
	}
}
