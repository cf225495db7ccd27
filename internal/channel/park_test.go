package channel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// linkStates collects what EachLink shows, in visit order.
func linkStates(m *Model, dst []LinkState, idx []int) ([]LinkState, []int) {
	dst, idx = dst[:0], idx[:0]
	m.EachLink(func(i int, st LinkState) {
		idx = append(idx, i)
		dst = append(dst, st)
	})
	return dst, idx
}

// streamStates collects what Streams.EachState shows, in visit order.
func streamStates(m *Model, dst [][2]uint64) [][2]uint64 {
	dst = dst[:0]
	m.streams.EachState(func(id, draws uint64) { dst = append(dst, [2]uint64{id, draws}) })
	return dst
}

// TestParkingIsExact is the law behind parked links: two models of one
// field on one seed take the same 10,000 random queries, one parking
// every link not advanced at the current instant at every grid rebuild,
// the other never parking. The field is the paper's density of waypoint
// terminals, so pairs cross in and out of range; instants only move
// forward; an outage schedule silences terminals for a second at a time.
// At every step the two must give the same Class, SNR and neighbourhood
// answers, show the same state for every link through EachLink, and the
// same (id, draws) for every stream. The walk must both park and revive
// links often, or it proves nothing.
func TestParkingIsExact(t *testing.T) {
	const n = 50
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	parking, _ := kineticField(31, n, -1)
	plain, _ := kineticField(31, n, -1)
	parking.SetParkAfter(0)
	plain.SetParkAfter(-1)
	outage := func(i int, at time.Duration) bool {
		return i%7 == 0 && (at/time.Second+time.Duration(i))%9 == 0
	}
	parking.SetOutage(outage)
	plain.SetOutage(outage)

	rng := rand.New(rand.NewSource(37))
	hot := make([]int, 4)
	var (
		at              time.Duration
		bufA, bufB      []int
		ncA, ncB        []NeighborClass
		stA, stB        []LinkState
		ixA, ixB        []int
		rsA, rsB        [][2]uint64
		parked          = make([]bool, n*(n-1)/2)
		parks, revivals int
		pickPartner     = func(i int) int {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			return j
		}
	)
	for step := 0; step < steps; step++ {
		if step%64 == 0 {
			for k := range hot {
				hot[k] = rng.Intn(n)
			}
		}
		if rng.Intn(4) > 0 { // a quarter of the queries share their instant
			at += time.Duration(math.Pow(10, 3+6*rng.Float64())) // 1 µs … 1 s
		}
		i := hot[rng.Intn(len(hot))]
		switch op := rng.Intn(6); op {
		case 0, 1:
			j := pickPartner(i)
			if k := hot[rng.Intn(len(hot))]; op == 0 && k != i {
				j = k // a pair a flood keeps asking about
			}
			if a, b := parking.Class(i, j, at), plain.Class(i, j, at); a != b {
				t.Fatalf("step %d: Class(%d, %d, %v) = %v parking, %v not", step, i, j, at, a, b)
			}
		case 2:
			j := pickPartner(i)
			if a, b := parking.SNR(i, j, at), plain.SNR(i, j, at); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: SNR(%d, %d, %v) = %v parking, %v not", step, i, j, at, a, b)
			}
		case 3:
			ncA = parking.NeighborClasses(i, at, ncA[:0])
			ncB = plain.NeighborClasses(i, at, ncB[:0])
			if len(ncA) != len(ncB) {
				t.Fatalf("step %d: NeighborClasses(%d, %v) = %v parking, %v not", step, i, at, ncA, ncB)
			}
			for k := range ncA {
				if ncA[k] != ncB[k] {
					t.Fatalf("step %d: NeighborClasses(%d, %v) = %v parking, %v not", step, i, at, ncA, ncB)
				}
			}
		case 4:
			// A flood delivery: a neighbourhood scan, then the class toward
			// each neighbour.
			bufA = parking.Neighbors(i, at, bufA[:0])
			bufB = plain.Neighbors(i, at, bufB[:0])
			if !sameInts(bufA, bufB) {
				t.Fatalf("step %d: Neighbors(%d, %v) = %v parking, %v not", step, i, at, bufA, bufB)
			}
			for _, j := range bufA {
				if a, b := parking.Class(i, j, at), plain.Class(i, j, at); a != b {
					t.Fatalf("step %d: Class(%d, %d, %v) = %v parking, %v not", step, i, j, at, a, b)
				}
			}
		case 5:
			bufA = parking.Interferers(i, at, bufA[:0])
			bufB = plain.Interferers(i, at, bufB[:0])
			if !sameInts(bufA, bufB) {
				t.Fatalf("step %d: Interferers(%d, %v) = %v parking, %v not", step, i, at, bufA, bufB)
			}
		}

		stA, ixA = linkStates(parking, stA, ixA)
		stB, ixB = linkStates(plain, stB, ixB)
		if len(stA) != len(stB) || parking.LinkCount() != plain.LinkCount() {
			t.Fatalf("step %d: %d links parking, %d not", step, len(stA), len(stB))
		}
		for k := range stA {
			if ixA[k] != ixB[k] || stA[k] != stB[k] {
				t.Fatalf("step %d: link %d is %+v parking, link %d %+v not", step, ixA[k], stA[k], ixB[k], stB[k])
			}
		}
		rsA, rsB = streamStates(parking, rsA), streamStates(plain, rsB)
		if len(rsA) != len(rsB) {
			t.Fatalf("step %d: %d streams parking, %d not", step, len(rsA), len(rsB))
		}
		for k := range rsA {
			if rsA[k] != rsB[k] {
				t.Fatalf("step %d: stream %d shows (id, draws) %v parking, %v not", step, k, rsA[k], rsB[k])
			}
		}
		for _, idx := range ixA {
			now := parking.links[idx].rng == nil
			switch {
			case now && !parked[idx]:
				parks++
			case !now && parked[idx]:
				revivals++
			}
			parked[idx] = now
		}
	}
	if parks < steps/10 || revivals < steps/20 {
		t.Errorf("%d parks and %d revivals in %d steps: the walk no longer exercises parking", parks, revivals, steps)
	}
	t.Logf("%d parks, %d revivals, %d links, %d generator records", parks, revivals, parking.LinkCount(), parking.GeneratorRecords())
}
