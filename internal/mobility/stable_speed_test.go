package mobility

import (
	"math/rand"
	"testing"
	"time"

	"rica/internal/geom"
)

// TestFusedQueriesMatchSplitQueries walks a trajectory and checks, at
// every step, that PositionStable and SpeedStable agree exactly with the
// plain Position/Speed calls on the same node (the calls are idempotent
// at one instant, so interleaving them is safe). TestStableUntilIsExact
// holds the position boundary.
func TestFusedQueriesMatchSplitQueries(t *testing.T) {
	cfg := Config{Field: geom.Field{Width: 900, Height: 700}, MaxSpeed: 14, Pause: 2 * time.Second}
	for seed := int64(1); seed <= 5; seed++ {
		n := NewNode(cfg, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 100))
		at := time.Duration(0)
		for k := 0; k < 3000; k++ {
			at += time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			wantPos := n.Position(at)
			if gotPos, _ := n.PositionStable(at); gotPos != wantPos {
				t.Fatalf("seed %d at %v: PositionStable = %v, Position = %v", seed, at, gotPos, wantPos)
			}
			wantSpeed := n.Speed(at)
			gotSpeed, until := n.SpeedStable(at)
			if gotSpeed != wantSpeed {
				t.Fatalf("seed %d at %v: SpeedStable = %v, Speed = %v", seed, at, gotSpeed, wantSpeed)
			}
			if until <= at {
				t.Fatalf("seed %d at %v: SpeedStable boundary %v not in the future", seed, at, until)
			}
		}
	}
}

// TestSpeedStableBoundaryIsExact asserts the contract the channel
// snapshot relies on: the speed reported at `at` stays the exact Speed
// answer for every instant before the returned boundary, and changes at
// (or after) it only.
func TestSpeedStableBoundaryIsExact(t *testing.T) {
	cfg := Config{Field: geom.Field{Width: 600, Height: 600}, MaxSpeed: 9, Pause: time.Second}
	n := NewNode(cfg, rand.New(rand.NewSource(11)))
	probe := NewNode(cfg, rand.New(rand.NewSource(11))) // identical twin for spot checks

	at := time.Duration(0)
	for k := 0; k < 200; k++ {
		v, until := n.SpeedStable(at)
		if until == StableForever {
			t.Fatal("mobile node claims eternal stability")
		}
		// Sample instants strictly inside [at, until): Speed must not move.
		span := until - at
		for _, frac := range []time.Duration{0, span / 3, span - 1} {
			if got := probe.Speed(at + frac); got != v {
				t.Fatalf("window [%v, %v): Speed(%v) = %v, SpeedStable said %v",
					at, until, at+frac, got, v)
			}
		}
		at = until
	}
}

// TestStaticNodeStableForever pins the degenerate MaxSpeed = 0 node.
func TestStaticNodeStableForever(t *testing.T) {
	n := NewNode(Config{Field: geom.Field{Width: 100, Height: 100}}, rand.New(rand.NewSource(3)))
	p, until := n.PositionStable(5 * time.Second)
	if until != StableForever {
		t.Fatalf("static position boundary = %v, want StableForever", until)
	}
	if p != n.Position(5*time.Second) {
		t.Fatal("static PositionStable disagrees with Position")
	}
	if v, u := n.SpeedStable(time.Hour); v != 0 || u != StableForever {
		t.Fatalf("static SpeedStable = (%v, %v), want (0, forever)", v, u)
	}
}
