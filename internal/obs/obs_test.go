package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestNilRegistrySafe: every record and read method must be a no-op on a
// nil registry — that is the contract that lets subsystems skip nil
// checks on their hot paths.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Inc(CEventsDispatched)
	r.Add(CEventsDispatched, 10)
	r.GaugeAdd(GQueueDepth, -5)
	r.Observe(HDelayNs, 123)
	r.SetSimNow(time.Second)
	if r.Counter(CEventsDispatched) != 0 || r.Gauge(GQueueDepth) != 0 || r.SimNow() != 0 {
		t.Fatal("nil registry must read zero")
	}
	if h := r.Histogram(HDelayNs); h != nil {
		t.Fatal("nil registry must expose a nil histogram")
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read zero")
	}
	s := r.Snapshot()
	if s.EventsDispatched != 0 {
		t.Fatal("nil registry snapshot must be zero")
	}
}

// TestCounterOverflowWraps: counters are plain uint64s — adding past the
// maximum wraps modulo 2^64 rather than saturating or panicking.
func TestCounterOverflowWraps(t *testing.T) {
	r := NewRegistry()
	r.Add(CTrafficGenerated, math.MaxUint64)
	r.Inc(CTrafficGenerated)
	if got := r.Counter(CTrafficGenerated); got != 0 {
		t.Fatalf("MaxUint64+1 = %d, want wrap to 0", got)
	}
	r.Add(CTrafficGenerated, 41)
	r.Inc(CTrafficGenerated)
	if got := r.Counter(CTrafficGenerated); got != 42 {
		t.Fatalf("post-wrap count = %d, want 42", got)
	}
}

// TestGaugeGoesNegative: gauges are signed; transient dips below zero
// (e.g. a cancel observed before its schedule on a fresh registry) must
// be representable, not clamped.
func TestGaugeGoesNegative(t *testing.T) {
	r := NewRegistry()
	r.GaugeAdd(GQueueDepth, -3)
	if got := r.Gauge(GQueueDepth); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
	r.GaugeAdd(GQueueDepth, 5)
	if got := r.Gauge(GQueueDepth); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	s := r.Snapshot()
	if s.QueueDepth != 2 {
		t.Fatalf("snapshot queue depth = %d, want 2", s.QueueDepth)
	}
}

// TestBucketIdxMonotone: the bucket index must be monotone in the value
// and every bucket's midpoint must land back in the same bucket.
func TestBucketIdxMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 3,
		1 << 40, math.MaxUint64/2 + 1, math.MaxUint64} {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		prev = idx
	}
	for idx := 0; idx < histBuckets; idx += 7 {
		mid := bucketMid(idx)
		if got := bucketIdx(mid); got != idx {
			t.Fatalf("bucketMid(%d) = %d maps back to bucket %d", idx, mid, got)
		}
	}
}

// TestHistogramQuantileError: against random samples, the quantile every
// export reads (the fold's, over a registry's delay histogram) must stay
// within the documented relative error of the exact nearest-rank quantile
// (small values are exact; large ones within ~1/(2·histSub) per midpoint
// half-width, doubled for rank ties at bucket boundaries, plus slack for
// adjacent-rank straddles).
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := NewRegistry()
		n := 100 + rng.Intn(5000)
		samples := make([]uint64, n)
		for i := range samples {
			// Log-uniform spread over ~9 decades, the shape of delay data.
			v := uint64(math.Exp(rng.Float64() * 20))
			samples[i] = v
			r.Observe(HDelayNs, v)
		}
		var f fold
		f.absorb(r)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0, 0.25, 0.50, 0.95, 0.99, 1} {
			exact := samples[int(q*float64(n-1)+0.5)]
			approx := f.quantile(q)
			if exact < histSmall {
				if approx != exact {
					t.Fatalf("q=%g small-value quantile = %d, want exact %d", q, approx, exact)
				}
				continue
			}
			relErr := math.Abs(float64(approx)-float64(exact)) / float64(exact)
			if relErr > 0.04 {
				t.Fatalf("trial %d q=%g: approx %d vs exact %d (rel err %.4f > 0.04)",
					trial, q, approx, exact, relErr)
			}
		}
	}
}

// TestHistogramCountSum exercises the bookkeeping around Observe.
func TestHistogramCountSum(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(20)
	if h.Count() != 2 || h.Sum() != 30 {
		t.Fatalf("count/sum = %d/%d, want 2/30", h.Count(), h.Sum())
	}
}

// TestSnapshotMapsEverySlot: the snapshot's explicit fields must cover
// every counter slot — a new counter without a snapshot field would
// silently vanish from exports.
func TestSnapshotMapsEverySlot(t *testing.T) {
	r := NewRegistry()
	for c := Counter(0); c < NumCounters; c++ {
		r.Add(c, uint64(c)+1)
	}
	s := r.Snapshot()
	for c := Counter(0); c < NumCounters; c++ {
		if got := *s.counter(c); got != uint64(c)+1 {
			t.Fatalf("snapshot field for %s = %d, want %d", counterNames[c], got, uint64(c)+1)
		}
	}
}

// TestZeroEffortClearsOnlyEffort: the determinism witness must lose the
// four how-it-was-computed counters and nothing else — in particular
// chan_class_misses (a fading link advanced) stays.
func TestZeroEffortClearsOnlyEffort(t *testing.T) {
	r := NewRegistry()
	for c := Counter(0); c < NumCounters; c++ {
		r.Add(c, uint64(c)+1)
	}
	s := r.Snapshot()
	s.ZeroEffort()
	effort := map[string]bool{
		"chan_class_hits": true, "chan_dist_misses": true,
		"chan_grid_rebuilds": true, "chan_annulus_checks": true,
	}
	for c := Counter(0); c < NumCounters; c++ {
		want := uint64(c) + 1
		if effort[counterNames[c]] {
			want = 0
		}
		if got := *s.counter(c); got != want {
			t.Errorf("%s = %d after ZeroEffort, want %d", counterNames[c], got, want)
		}
	}
}

// TestHubFoldsDetached: a detached registry's totals must keep counting
// toward the hub aggregate, and active registries are read live.
func TestHubFoldsDetached(t *testing.T) {
	h := NewHub()
	a, b := NewRegistry(), NewRegistry()
	h.Attach(a)
	h.Attach(b)
	a.Add(CEventsDispatched, 10)
	b.Add(CEventsDispatched, 5)
	a.SetSimNow(3 * time.Second)
	b.SetSimNow(2 * time.Second)
	if s := h.Snapshot(); s.EventsDispatched != 15 || s.SimNowNs != int64(3*time.Second) {
		t.Fatalf("live aggregate = %d events @%dns, want 15 @3s", s.EventsDispatched, s.SimNowNs)
	}
	h.Detach(a)
	a.Add(CEventsDispatched, 100) // after detach: frozen totals, not live
	b.Add(CEventsDispatched, 1)
	if s := h.Snapshot(); s.EventsDispatched != 16 {
		t.Fatalf("post-detach aggregate = %d, want 16", s.EventsDispatched)
	}
	h.Detach(a) // double-detach must not re-fold
	if s := h.Snapshot(); s.EventsDispatched != 16 {
		t.Fatal("double detach re-folded the registry")
	}
}

// TestRecordPathsDoNotAllocate is the package-level half of the repo's
// allocs/op gate: every hot-path record must be allocation-free.
func TestRecordPathsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(1000, func() {
		r.Inc(CEventsDispatched)
		r.Add(CClassHits, 3)
		r.GaugeAdd(GQueueDepth, 1)
		r.GaugeAdd(GQueueDepth, -1)
		r.Observe(HDelayNs, 1234567)
		r.SetSimNow(42 * time.Millisecond)
	}); n != 0 {
		t.Fatalf("record paths allocate %.1f allocs/op, want 0", n)
	}
	var nilReg *Registry
	if n := testing.AllocsPerRun(1000, func() {
		nilReg.Inc(CEventsDispatched)
		nilReg.Observe(HDelayNs, 1)
	}); n != 0 {
		t.Fatalf("nil-registry paths allocate %.1f allocs/op, want 0", n)
	}
}
