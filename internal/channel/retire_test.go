package channel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestRetiredRecordsCarryNothing is the law behind Model.Retire: the
// link records a retired model hands on serve the next model exactly as
// fresh ones do. A model of one field walks a seeded run of Class, SNR
// and neighbourhood queries on fresh records. A donor model of another
// field then fills records of its own, has every memo and state field
// of each overwritten with junk, and retires. A model of the first
// field and seed, built after, takes the donor's records and must give
// the first model's answers query for query and show the same state for
// every link. It must take donor records, or it proves nothing.
func TestRetiredRecordsCarryNothing(t *testing.T) {
	const n = 50
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	type answer struct {
		class Class
		snr   uint64
		nbrs  []NeighborClass
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
			out = append(out, answer{m.Class(i, j, at), math.Float64bits(m.SNR(i, j, at)), m.NeighborClasses(i, at, nil)})
		}
		return out
	}

	fresh, _ := kineticField(31, n, -1)
	want := walk(fresh)
	wantLinks, wantIdx := linkStates(fresh, nil, nil)

	donor, _ := kineticField(47, n, -1)
	walk(donor)
	given := map[*linkRec]bool{}
	for _, recs := range [][]*linkRec{donor.live, donor.free} {
		for _, rec := range recs {
			given[rec] = true
			rec.last = -time.Hour
			rec.shadow, rec.fi, rec.fq = math.NaN(), math.Inf(1), -1e300
			rec.memoGen, rec.memoClass = 1, ClassNone
			rec.snrGen, rec.snr = 1, math.NaN()
			rec.lastClass = Class(0x7f)
			rec.lastD, rec.lastPathLoss = 1, math.NaN()
			rec.idx = -1
		}
	}
	donor.Retire()

	reused, _ := kineticField(31, n, -1)
	got := walk(reused)
	for k := range want {
		w, g := want[k], got[k]
		if w.class != g.class || w.snr != g.snr || len(w.nbrs) != len(g.nbrs) {
			t.Fatalf("query %d: retired records answer (%v, %x, %v), fresh ones (%v, %x, %v)",
				k, g.class, g.snr, g.nbrs, w.class, w.snr, w.nbrs)
		}
		for i := range w.nbrs {
			if w.nbrs[i] != g.nbrs[i] {
				t.Fatalf("query %d: retired records see neighbours %v, fresh ones %v", k, g.nbrs, w.nbrs)
			}
		}
	}
	gotLinks, gotIdx := linkStates(reused, nil, nil)
	if !sameInts(gotIdx, wantIdx) {
		t.Fatalf("retired records hold links %v, fresh ones %v", gotIdx, wantIdx)
	}
	for k := range wantLinks {
		if gotLinks[k] != wantLinks[k] {
			t.Fatalf("link %d: retired record shows %+v, fresh one %+v", wantIdx[k], gotLinks[k], wantLinks[k])
		}
	}
	taken := 0
	for _, recs := range [][]*linkRec{reused.live, reused.free} {
		for _, rec := range recs {
			if given[rec] {
				taken++
			}
		}
	}
	if taken == 0 {
		t.Fatalf("the model took none of the %d retired records: the law was not exercised", len(given))
	}
	t.Logf("%d of the model's %d records came from the donor", taken, len(reused.live)+len(reused.free))
}
