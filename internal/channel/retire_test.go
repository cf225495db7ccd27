package channel

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// TestRetiredRecordsCarryNothing is the law behind the vector pool: the
// 607-word vectors a retired world's streams hand on serve the next
// model exactly as fresh ones do. A model of one field walks a seeded
// run of Class queries and neighbourhood scans, each scan followed by
// the class toward every neighbour, on fresh vectors. A donor model of
// another field then walks its links' streams into vectors of its own
// and retires its stream factory, as World.Retire does. A model of the
// first field and seed, built after, takes the donor's vectors for its
// links and must give the first model's answers query for query and
// show the same LINK section. It must take donor vectors, or it
// proves nothing: with the collector held off, so that the pool keeps
// what it is given, its walk must allocate at least one vector fewer
// than the fresh model's did.
func TestRetiredRecordsCarryNothing(t *testing.T) {
	const (
		n         = 50
		vectorLen = 4864 // bytes of one vector, TestFastSourceFillsItsSizeClass
	)
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	type answer struct {
		class    Class
		nbrs     []int
		nclasses []Class
	}
	walk := func(m *Model) []answer {
		rng := rand.New(rand.NewSource(43))
		out := make([]answer, 0, steps)
		var at time.Duration
		for step := 0; step < steps; step++ {
			at += time.Duration(math.Pow(10, 3+6*rng.Float64())) // 1 µs … 1 s
			i, j := rng.Intn(n), rng.Intn(n-1)
			if j >= i {
				j++
			}
			a := answer{class: m.Class(i, j, at), nbrs: m.Neighbors(i, at, nil)}
			for _, k := range a.nbrs {
				a.nclasses = append(a.nclasses, m.Class(i, k, at))
			}
			out = append(out, a)
		}
		return out
	}

	// Two collections empty the pool; with the collector off it then
	// holds exactly what the walks below put in it.
	emptyPool := func() { runtime.GC(); runtime.GC() }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(walkOn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		walkOn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	emptyPool()
	fresh, _ := kineticField(31, n, -1)
	var want []answer
	freshBytes := allocated(func() { want = walk(fresh) })

	emptyPool()
	donor, _ := kineticField(47, n, -1)
	walk(donor)
	donor.streams.Retire()

	reused, _ := kineticField(31, n, -1)
	var got []answer
	reusedBytes := allocated(func() { got = walk(reused) })
	for k := range want {
		w, g := want[k], got[k]
		if w.class != g.class || !sameInts(w.nbrs, g.nbrs) || !slices.Equal(w.nclasses, g.nclasses) {
			t.Fatalf("query %d: retired vectors answer (%v, %v, %v), fresh ones (%v, %v, %v)",
				k, g.class, g.nbrs, g.nclasses, w.class, w.nbrs, w.nclasses)
		}
	}
	if d := linkDiff(reused, fresh); d != "" {
		t.Fatalf("the model on retired vectors and the one on fresh vectors differ: %s", d)
	}
	if freshBytes < reusedBytes+vectorLen {
		t.Fatalf("the walk allocated %d bytes on fresh vectors and %d on retired ones: it took none of the donor's", freshBytes, reusedBytes)
	}
	t.Logf("the model took %d of the donor's vectors", (freshBytes-reusedBytes)/vectorLen)
}
