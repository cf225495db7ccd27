package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rica/internal/geom"
	"rica/internal/sim"
)

func TestClassOrderingAndLabels(t *testing.T) {
	if ClassNone.Usable() {
		t.Error("ClassNone must not be usable")
	}
	order := []Class{ClassA, ClassB, ClassC, ClassD}
	labels := []string{"A", "B", "C", "D"}
	prevTP := math.Inf(1)
	prevHop := 0.0
	for i, c := range order {
		if !c.Usable() {
			t.Errorf("%v must be usable", c)
		}
		if c.String() != labels[i] {
			t.Errorf("label of %d = %q, want %q", i, c.String(), labels[i])
		}
		if tp := c.ThroughputBps(); tp >= prevTP {
			t.Errorf("throughput must strictly decrease A→D; %v has %v", c, tp)
		} else {
			prevTP = tp
		}
		if h := c.HopDistance(); h <= prevHop {
			t.Errorf("hop distance must strictly increase A→D; %v has %v", c, h)
		} else {
			prevHop = h
		}
	}
}

func TestPaperThroughputsAndHopDistances(t *testing.T) {
	cases := []struct {
		c    Class
		bps  float64
		hops float64
	}{
		{ClassA, 250_000, 1},
		{ClassB, 150_000, 1.67},
		{ClassC, 75_000, 3.33},
		{ClassD, 50_000, 5},
	}
	for _, c := range cases {
		if got := c.c.ThroughputBps(); got != c.bps {
			t.Errorf("%v throughput = %v, want %v", c.c, got, c.bps)
		}
		if got := c.c.HopDistance(); got != c.hops {
			t.Errorf("%v hop distance = %v, want %v", c.c, got, c.hops)
		}
	}
}

func TestTransmitDuration(t *testing.T) {
	// 512 bytes at 250 kbps = 4096 bits / 250000 bps = 16.384 ms.
	got := ClassA.TransmitDuration(512)
	want := time.Duration(16.384 * float64(time.Millisecond))
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("TransmitDuration(512)@A = %v, want ~%v", got, want)
	}
	// Class D is 5x slower than A.
	ratio := float64(ClassD.TransmitDuration(512)) / float64(ClassA.TransmitDuration(512))
	if math.Abs(ratio-5) > 1e-9 {
		t.Errorf("D/A duration ratio = %v, want 5", ratio)
	}
}

func TestTransmitDurationPanicsOnNoLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransmitDuration on ClassNone did not panic")
		}
	}()
	ClassNone.TransmitDuration(1)
}

func TestClassForSNRMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		cLo, cHi := ClassForSNR(lo, &cfg), ClassForSNR(hi, &cfg)
		// Higher SNR must never give a worse (larger) class.
		return cHi <= cLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassForSNRBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		snr  float64
		want Class
	}{
		{cfg.ThresholdA, ClassA},
		{cfg.ThresholdA - 0.001, ClassB},
		{cfg.ThresholdB, ClassB},
		{cfg.ThresholdB - 0.001, ClassC},
		{cfg.ThresholdC, ClassC},
		{cfg.ThresholdC - 0.001, ClassD},
		{-100, ClassD},
	}
	for _, c := range cases {
		if got := ClassForSNR(c.snr, &cfg); got != c.want {
			t.Errorf("ClassForSNR(%v) = %v, want %v", c.snr, got, c.want)
		}
	}
}

// fixedPos is a Positioner pinned to one point (a parked terminal: its
// links' fading is nearly frozen).
type fixedPos geom.Point

func (p fixedPos) Position(time.Duration) geom.Point { return geom.Point(p) }

// pacedPos is pinned in place but reports RefSpeed-paced motion, so its
// links fade at the nominal decorrelation rates. Statistical tests use it
// to sample the stationary class distribution in reasonable time. It
// vouches for nothing across instants: both answers go stale at once and
// it has no drift bound.
type pacedPos geom.Point

func (p pacedPos) Position(time.Duration) geom.Point { return geom.Point(p) }
func (p pacedPos) PositionStable(at time.Duration) (geom.Point, time.Duration) {
	return geom.Point(p), at
}
func (p pacedPos) SpeedStable(at time.Duration) (float64, time.Duration) { return 10, at }
func (p pacedPos) SpeedLimit() float64                                   { return math.Inf(1) }

func newTestModel(points ...geom.Point) *Model {
	pos := make([]Positioner, len(points))
	for i, p := range points {
		pos[i] = fixedPos(p)
	}
	return NewModel(DefaultConfig(), sim.NewStreams(1), pos)
}

func newPacedModel(points ...geom.Point) *Model {
	pos := make([]Positioner, len(points))
	for i, p := range points {
		pos[i] = pacedPos(p)
	}
	return NewModel(DefaultConfig(), sim.NewStreams(1), pos)
}

func TestOutOfRangeHasNoLink(t *testing.T) {
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 500, Y: 0})
	for at := time.Duration(0); at < 10*time.Second; at += time.Second {
		if c := m.Class(0, 1, at); c != ClassNone {
			t.Fatalf("class at 500 m = %v, want ClassNone", c)
		}
	}
}

func TestInRangeAlwaysUsable(t *testing.T) {
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 200, Y: 0})
	for at := time.Duration(0); at < 30*time.Second; at += 100 * time.Millisecond {
		if c := m.Class(0, 1, at); !c.Usable() {
			t.Fatalf("in-range link unusable (%v) at t=%v; deep fades must map to class D", c, at)
		}
	}
}

func TestLinkSymmetric(t *testing.T) {
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 0}, geom.Point{X: 900, Y: 900})
	for at := time.Duration(0); at < 5*time.Second; at += 250 * time.Millisecond {
		if a, b := m.Class(0, 1, at), m.Class(1, 0, at); a != b {
			t.Fatalf("asymmetric link at t=%v: %v vs %v", at, a, b)
		}
	}
}

func TestCloseLinkMostlyClassA(t *testing.T) {
	m := newPacedModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 20, Y: 0})
	counts := map[Class]int{}
	total := 0
	for at := time.Duration(0); at < 200*time.Second; at += 100 * time.Millisecond {
		counts[m.Class(0, 1, at)]++
		total++
	}
	if frac := float64(counts[ClassA]) / float64(total); frac < 0.7 {
		t.Errorf("20 m link class A fraction = %.2f, want > 0.7 (dist %v)", frac, counts)
	}
}

func TestEdgeLinkMostlyPoor(t *testing.T) {
	m := newPacedModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 245, Y: 0})
	counts := map[Class]int{}
	total := 0
	for at := time.Duration(0); at < 200*time.Second; at += 100 * time.Millisecond {
		counts[m.Class(0, 1, at)]++
		total++
	}
	poor := float64(counts[ClassC]+counts[ClassD]) / float64(total)
	if poor < 0.45 {
		t.Errorf("edge link C+D fraction = %.2f, want > 0.45 (dist %v)", poor, counts)
	}
	if classA := float64(counts[ClassA]) / float64(total); classA > 0.35 {
		t.Errorf("edge link class A fraction = %.2f, want < 0.35 (dist %v)", classA, counts)
	}
}

func TestMidRangeLinkVisitsAllClasses(t *testing.T) {
	m := newPacedModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 120, Y: 0})
	counts := map[Class]int{}
	for at := time.Duration(0); at < 500*time.Second; at += 100 * time.Millisecond {
		counts[m.Class(0, 1, at)]++
	}
	for _, c := range []Class{ClassA, ClassB, ClassC, ClassD} {
		if counts[c] == 0 {
			t.Errorf("mid-range link never visited class %v in 500 s: %v", c, counts)
		}
	}
}

// TestFadingStationary verifies the lazy AR(1) advance preserves the
// stationary distribution: the fading quadrature variance stays near 1 and
// shadowing variance near σ² over a long horizon, for irregular sampling.
func TestFadingStationary(t *testing.T) {
	cfg := DefaultConfig()
	l := new(Link)
	l.init(&cfg, rand.New(rand.NewSource(42)))
	sampler := rand.New(rand.NewSource(7))
	var sumShadow, sumShadow2 float64
	n := 0
	at := time.Duration(0)
	for i := 0; i < 20000; i++ {
		at += time.Duration(sampler.Intn(900)+100) * time.Millisecond
		l.advance(at, 10)
		sumShadow += l.shadow
		sumShadow2 += l.shadow * l.shadow
		n++
	}
	mean := sumShadow / float64(n)
	variance := sumShadow2/float64(n) - mean*mean
	sd := math.Sqrt(variance)
	if math.Abs(mean) > 1.0 {
		t.Errorf("shadowing mean = %.3f dB, want ~0", mean)
	}
	if sd < cfg.ShadowSigma*0.8 || sd > cfg.ShadowSigma*1.2 {
		t.Errorf("shadowing sd = %.3f dB, want ~%v", sd, cfg.ShadowSigma)
	}
}

func TestDeterministicAcrossModels(t *testing.T) {
	mk := func() *Model {
		return NewModel(DefaultConfig(), sim.NewStreams(5),
			[]Positioner{fixedPos{0, 0}, fixedPos{100, 0}, fixedPos{0, 150}})
	}
	a, b := mk(), mk()
	for at := time.Duration(0); at < 10*time.Second; at += 77 * time.Millisecond {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if ca, cb := a.Class(i, j, at), b.Class(i, j, at); ca != cb {
					t.Fatalf("same seed diverged: link %d-%d at %v: %v vs %v", i, j, at, ca, cb)
				}
			}
		}
	}
}

func TestRepeatedQuerySameInstantStable(t *testing.T) {
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
	at := 3 * time.Second
	c1 := m.Class(0, 1, at)
	for i := 0; i < 10; i++ {
		if c := m.Class(0, 1, at); c != c1 {
			t.Fatalf("class changed within one instant: %v then %v", c1, c)
		}
	}
}

func TestPairIndexBijective(t *testing.T) {
	const n = 50
	pos := make([]Positioner, n)
	for i := range pos {
		pos[i] = fixedPos{float64(i), 0}
	}
	m := NewModel(DefaultConfig(), sim.NewStreams(1), pos)
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			idx := m.pairIndex(i, j)
			if idx < 0 || idx >= len(m.links) {
				t.Fatalf("pairIndex(%d,%d) = %d out of bounds %d", i, j, idx, len(m.links))
			}
			if seen[idx] {
				t.Fatalf("pairIndex(%d,%d) = %d collides", i, j, idx)
			}
			seen[idx] = true
			if m.pairIndex(j, i) != idx {
				t.Fatalf("pairIndex not symmetric for (%d,%d)", i, j)
			}
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("pairIndex covered %d slots, want %d", len(seen), n*(n-1)/2)
	}
}

// TestLinkHotFieldsShareFirstCacheLine guards the layout the N=500 class
// query is sized around: a miss lands on the link, and what every query
// reads — the advance clock, the three process values, the per-instant
// memo stamp and the stream pointer — must come in with that one line.
func TestLinkHotFieldsShareFirstCacheLine(t *testing.T) {
	var l Link
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"last", unsafe.Offsetof(l.last), unsafe.Sizeof(l.last)},
		{"shadow", unsafe.Offsetof(l.shadow), unsafe.Sizeof(l.shadow)},
		{"fi", unsafe.Offsetof(l.fi), unsafe.Sizeof(l.fi)},
		{"fq", unsafe.Offsetof(l.fq), unsafe.Sizeof(l.fq)},
		{"memoGen", unsafe.Offsetof(l.memoGen), unsafe.Sizeof(l.memoGen)},
		{"rng", unsafe.Offsetof(l.rng), unsafe.Sizeof(l.rng)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("Link.%s ends at byte %d, outside the first cache line", f.name, f.off+f.size)
		}
	}
}

func TestSelfLinkPanics(t *testing.T) {
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("Class(i,i) did not panic")
		}
	}()
	m.Class(1, 1, 0)
}

func TestNeighbors(t *testing.T) {
	m := newTestModel(
		geom.Point{X: 0, Y: 0},   // 0
		geom.Point{X: 100, Y: 0}, // 1: in range of 0
		geom.Point{X: 240, Y: 0}, // 2: in range of 0 and 1
		geom.Point{X: 600, Y: 0}, // 3: out of range of all but 4
		geom.Point{X: 700, Y: 0}, // 4
	)
	got := m.Neighbors(0, 0, nil)
	want := []int{1, 2}
	if len(got) != len(want) || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
	if got := m.Neighbors(3, 0, nil); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Neighbors(3) = %v, want [4]", got)
	}
	// Buffer reuse must append, not reset.
	buf := []int{99}
	got = m.Neighbors(3, 0, buf)
	if len(got) != 2 || got[0] != 99 || got[1] != 4 {
		t.Fatalf("Neighbors with buffer = %v, want [99 4]", got)
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	cfg := DefaultConfig()
	// Compare median-ish SNR at two distances using many fresh links.
	avg := func(d float64) float64 {
		var sum float64
		for s := int64(0); s < 200; s++ {
			l := new(Link)
			l.init(&cfg, rand.New(rand.NewSource(s)))
			sum += l.SNR(d, 10, 0)
		}
		return sum / 200
	}
	near, far := avg(50), avg(200)
	if near <= far {
		t.Errorf("mean SNR at 50 m (%.1f) not above 200 m (%.1f)", near, far)
	}
	// Path-loss difference should be ~10*3*log10(4) ≈ 18 dB.
	if diff := near - far; diff < 12 || diff > 24 {
		t.Errorf("SNR gap 50→200 m = %.1f dB, want ≈18", diff)
	}
}

func TestModelAccessors(t *testing.T) {
	// Terminal 1 sits exactly at the 250 m range, terminal 2 just beyond.
	m := newTestModel(geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 200}, geom.Point{X: 150, Y: 200.001})
	if m.N() != 3 {
		t.Errorf("N = %d, want 3", m.N())
	}
	if !m.InRange(0, 1, 0) || !m.InRange(1, 0, 0) {
		t.Error("InRange(250 m) = false")
	}
	if m.InRange(0, 2, 0) {
		t.Error("InRange(250.0008 m) = true")
	}
	if !m.InRange(1, 1, 0) {
		t.Error("a terminal does not hear itself")
	}
}
