package channel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/sim"
)

// linkBytes is the LINK section m captures.
func linkBytes(m *Model) []byte {
	var e checkpoint.Enc
	m.Capture(&e)
	return e.Cut()
}

// linkDigest is the SHA-256 of the LINK section m captures, which a
// snapshot stores; a walk compares these and builds the payloads only to
// name a difference.
func linkDigest(m *Model) []byte {
	e := checkpoint.NewDigestEnc()
	m.Capture(e)
	return e.Cut()
}

// linkRecord is the size of one link in LINK: its index and seven state
// words, after the section's 8-byte link count.
const linkRecord = 8 * 8

// linkDiff describes the first link whose LINK record differs between
// the captures of a and b, "" when they are equal.
func linkDiff(a, b *Model) string {
	if bytes.Equal(linkDigest(a), linkDigest(b)) {
		return ""
	}
	x, y := linkBytes(a), linkBytes(b)
	if len(x) != len(y) {
		return fmt.Sprintf("LINK holds %d links against %d", (len(x)-8)/linkRecord, (len(y)-8)/linkRecord)
	}
	off := 8
	for x[off] == y[off] {
		off++
	}
	lo := 8 + (off-8)/linkRecord*linkRecord
	return fmt.Sprintf("LINK record of pair %d is %x against %x", binary.LittleEndian.Uint64(x[lo:]), x[lo:lo+linkRecord], y[lo:lo+linkRecord])
}

// streamStates collects what Streams.EachState shows, in visit order.
func streamStates(m *Model, dst [][2]uint64) [][2]uint64 {
	dst = dst[:0]
	m.streams.EachState(func(id, draws uint64) { dst = append(dst, [2]uint64{id, draws}) })
	return dst
}

// linkOfStream maps the id of each of n terminals' link streams to the
// link's triangular index, read off a factory that seeds them all.
func linkOfStream(n int) map[uint64]int {
	s := sim.NewStreams(0)
	var mem sim.StreamMem
	for idx := 0; idx < n*(n-1)/2; idx++ {
		s.SeedAt(&mem, streamKindChannel, uint64(idx))
		mem.Release()
	}
	of := make(map[uint64]int, n*(n-1)/2)
	idx := 0
	s.EachState(func(id, _ uint64) {
		of[id] = idx
		idx++
	})
	return of
}

// TestParkingIsExact is the law behind parked links: two models of one
// field on one seed take the same 10,000 random queries, one parking
// every link not advanced at the current instant at every grid rebuild,
// the other never parking. The field is the paper's density of waypoint
// terminals, so pairs cross in and out of range; instants only move
// forward; an outage schedule silences terminals for a second at a time.
// At every step the two must give the same Class, InRange and
// neighbourhood answers, show the same state for every link through
// the LINK section they capture, and the same (id, draws) for every
// stream. A parked link is
// one whose stream holds no vector; one parked link drawing again is
// told by its draw count, since one parked below 273 draws draws from
// its seed words and takes no vector back. The walk must both park
// links and draw on parked ones often, or it proves nothing.
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
		rsA, rsB        [][2]uint64
		linkOf          = linkOfStream(n)
		recLink         []int // the link of each stream record
		held            = make([]bool, n*(n-1)/2)
		parkedAt        = make([]uint64, n*(n-1)/2) // draws at parking, +1; 0 while not parked
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
			// A range check, then the class from the other end.
			j := pickPartner(i)
			if a, b := parking.InRange(i, j, at), plain.InRange(i, j, at); a != b {
				t.Fatalf("step %d: InRange(%d, %d, %v) = %v parking, %v not", step, i, j, at, a, b)
			}
			if a, b := parking.Class(j, i, at), plain.Class(j, i, at); a != b {
				t.Fatalf("step %d: Class(%d, %d, %v) = %v parking, %v not", step, j, i, at, a, b)
			}
		case 3:
			// A topology survey: a neighbourhood scan, then the class toward
			// each neighbour above i.
			bufA = parking.Neighbors(i, at, bufA[:0])
			bufB = plain.Neighbors(i, at, bufB[:0])
			if !sameInts(bufA, bufB) {
				t.Fatalf("step %d: Neighbors(%d, %v) = %v parking, %v not", step, i, at, bufA, bufB)
			}
			for _, j := range bufA {
				if j < i {
					continue
				}
				if a, b := parking.Class(i, j, at), plain.Class(i, j, at); a != b {
					t.Fatalf("step %d: Class(%d, %d, %v) = %v parking, %v not", step, i, j, at, a, b)
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

		if d := linkDiff(parking, plain); d != "" {
			t.Fatalf("step %d: the parking model and the plain one differ: %s", step, d)
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
		for k, rs := range rsA {
			if k == len(recLink) {
				recLink = append(recLink, linkOf[rs[0]])
				held[recLink[k]] = true // SeedAt gives a link its vector at birth
			}
			idx, draws := recLink[k], rs[1]
			now := parking.links[idx].stream.Held()
			if held[idx] && !now {
				parks++
				parkedAt[idx] = draws + 1
			} else if parkedAt[idx] != 0 && draws+1 > parkedAt[idx] {
				revivals++
				parkedAt[idx] = 0
			}
			held[idx] = now
		}
	}
	if parks < steps/10 || revivals < steps/20 {
		t.Errorf("%d parks and %d parked links drawing again in %d steps: the walk no longer exercises parking", parks, revivals, steps)
	}
	t.Logf("%d parks, %d parked links drawing again, %d links, %d vectors held", parks, revivals, parking.LinkCount(), parking.HeldVectors())
}
