package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestWarmChangesNothing is the law behind Model.Warm: two models of one
// field on one seed take the same 10,000 random batches of class
// queries, and one of them is warmed with each batch's receivers first.
// A batch is a flood delivery — a sender's neighbourhood, each neighbour
// asking the class of the link it heard over — or a handful of random
// partners, most of them pairs that have never met; some batches are
// warmed and then asked only in part, or not at all. Instants only move
// forward, far past the idle time after which a grid rebuild parks a
// link, and an outage schedule silences terminals for a second at a
// time. The two must give the same Class and Neighbors answers at every
// step, create the same number of links, and show the same state for
// every link through EachLink and the same (id, draws) for every stream.
// The walk must warm uncreated, live and parked pairs, or it proves
// nothing.
func TestWarmChangesNothing(t *testing.T) {
	for _, n := range []int{50, 500} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { warmLaw(t, n) })
	}
}

func warmLaw(t *testing.T, n int) {
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	// Comparing every link and stream is O(links); at N=500 do it every
	// few batches and after the last.
	every := 1
	if n > 50 {
		every = 20
	}
	warm, _ := kineticField(43, n, -1)
	cold, _ := kineticField(43, n, -1)
	outage := func(i int, at time.Duration) bool {
		return i%7 == 0 && (at/time.Second+time.Duration(i))%9 == 0
	}
	warm.SetOutage(outage)
	cold.SetOutage(outage)

	rng := rand.New(rand.NewSource(47))
	hot := make([]int, 4)
	var (
		at                   time.Duration
		js, other            []int
		stA, stB             []LinkState
		ixA, ixB             []int
		rsA, rsB             [][2]uint64
		uncreated, live, pkd int
	)
	for step := 0; step < steps; step++ {
		if step%64 == 0 {
			for k := range hot {
				hot[k] = rng.Intn(n)
			}
		}
		if rng.Intn(4) > 0 { // a quarter of the batches share their instant
			at += time.Duration(math.Pow(10, 3+6*rng.Float64())) // 1 µs … 1 s
		}
		i := hot[rng.Intn(len(hot))]
		if rng.Intn(2) == 0 {
			js = warm.Neighbors(i, at, js[:0])
			other = cold.Neighbors(i, at, other[:0])
			if !sameInts(js, other) {
				t.Fatalf("step %d: Neighbors(%d, %v) = %v warmed, %v not", step, i, at, js, other)
			}
		} else {
			js = js[:0]
			for k := 1 + rng.Intn(8); k > 0; k-- {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				js = append(js, j)
			}
		}

		for _, j := range js {
			switch l := warm.links[warm.pairIndex(i, j)]; {
			case l == nil:
				uncreated++
			case l.rng == nil:
				pkd++
			default:
				live++
			}
		}
		warm.Warm(i, js)
		asked := js
		switch rng.Intn(8) {
		case 0:
			asked = nil // warmed, never asked
		case 1:
			asked = js[:rng.Intn(len(js)+1)] // the receivers that did not collide
		}
		for _, j := range asked {
			if a, b := warm.Class(j, i, at), cold.Class(j, i, at); a != b {
				t.Fatalf("step %d: Class(%d, %d, %v) = %v warmed, %v not", step, j, i, at, a, b)
			}
		}

		if warm.LinkCount() != cold.LinkCount() {
			t.Fatalf("step %d: %d links warmed, %d not", step, warm.LinkCount(), cold.LinkCount())
		}
		if step%every != 0 && step != steps-1 {
			continue
		}
		stA, ixA = linkStates(warm, stA, ixA)
		stB, ixB = linkStates(cold, stB, ixB)
		if len(stA) != len(stB) {
			t.Fatalf("step %d: EachLink shows %d links warmed, %d not", step, len(stA), len(stB))
		}
		for k := range stA {
			if ixA[k] != ixB[k] || stA[k] != stB[k] {
				t.Fatalf("step %d: link %d is %+v warmed, link %d %+v not", step, ixA[k], stA[k], ixB[k], stB[k])
			}
		}
		rsA, rsB = streamStates(warm, rsA), streamStates(cold, rsB)
		if len(rsA) != len(rsB) {
			t.Fatalf("step %d: %d streams warmed, %d not", step, len(rsA), len(rsB))
		}
		for k := range rsA {
			if rsA[k] != rsB[k] {
				t.Fatalf("step %d: stream %d shows (id, draws) %v warmed, %v not", step, k, rsA[k], rsB[k])
			}
		}
	}
	if uncreated < steps/10 || live < steps/10 || pkd < steps/20 {
		t.Errorf("warmed %d uncreated, %d live and %d parked pairs in %d steps: the walk no longer covers all three",
			uncreated, live, pkd, steps)
	}
	t.Logf("warmed %d uncreated, %d live, %d parked pairs; %d links by %v", uncreated, live, pkd, warm.LinkCount(), at)
}
