package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rica/internal/packet"
)

func TestPercentilesEmpty(t *testing.T) {
	if p := percentiles(nil); p != (DelayPercentiles{}) {
		t.Fatalf("empty percentiles = %+v", p)
	}
}

func TestPercentilesKnownDistribution(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1..100 ms
	}
	// Shuffle to prove sorting happens.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	p := percentiles(samples)
	if p.P50 < 49*time.Millisecond || p.P50 > 52*time.Millisecond {
		t.Errorf("P50 = %v, want ≈50ms", p.P50)
	}
	if p.P90 < 89*time.Millisecond || p.P90 > 92*time.Millisecond {
		t.Errorf("P90 = %v, want ≈90ms", p.P90)
	}
	if p.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", p.Max)
	}
}

func TestPercentilesOrderedProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Microsecond
		}
		p := percentiles(samples)
		return p.P50 <= p.P90 && p.P90 <= p.P99 && p.P99 <= p.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryIncludesPercentiles(t *testing.T) {
	c := NewCollector(10 * time.Second)
	for i := 1; i <= 10; i++ {
		c.DataGenerated(&packet.Packet{Src: 1, Dst: 2}, 0)
		c.DataDelivered(&packet.Packet{Src: 1, Dst: 2, Size: 512, TraversedHops: 1, TraversedBps: 1},
			time.Duration(i)*100*time.Millisecond)
	}
	s := c.Summary()
	if s.Delay.Max != time.Second {
		t.Fatalf("Delay.Max = %v, want 1s", s.Delay.Max)
	}
	if s.Delay.P50 <= 0 || s.Delay.P50 > s.Delay.P99 {
		t.Fatalf("percentiles inconsistent: %+v", s.Delay)
	}
}

func TestPerFlowBreakdown(t *testing.T) {
	c := NewCollector(10 * time.Second)
	// Flow 1→2: 3 generated, 2 delivered. Flow 4→3: 1 generated, 0 delivered.
	for i := 0; i < 3; i++ {
		c.DataGenerated(&packet.Packet{Src: 1, Dst: 2}, 0)
	}
	c.DataGenerated(&packet.Packet{Src: 4, Dst: 3}, 0)
	c.DataDelivered(&packet.Packet{Src: 1, Dst: 2, Size: 512}, 100*time.Millisecond)
	c.DataDelivered(&packet.Packet{Src: 1, Dst: 2, Size: 512}, 300*time.Millisecond)
	s := c.Summary()
	if len(s.PerFlow) != 2 {
		t.Fatalf("flows = %d, want 2", len(s.PerFlow))
	}
	// Deterministic order: (1,2) before (4,3).
	f0 := s.PerFlow[0]
	if f0.Src != 1 || f0.Dst != 2 || f0.Generated != 3 || f0.Delivered != 2 {
		t.Fatalf("flow 0 = %+v", f0)
	}
	if f0.AvgDelay != 200*time.Millisecond {
		t.Fatalf("flow 0 delay = %v, want 200ms", f0.AvgDelay)
	}
	if r := f0.DeliveryRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("flow 0 ratio = %v", r)
	}
	f1 := s.PerFlow[1]
	if f1.Src != 4 || f1.Delivered != 0 || f1.DeliveryRatio() != 0 {
		t.Fatalf("flow 1 = %+v", f1)
	}
}

func TestEnergyStatsTotal(t *testing.T) {
	e := EnergyStats{ControlJ: 1.5, DataJ: 2.5}
	if e.TotalJ() != 4 {
		t.Fatalf("TotalJ = %v", e.TotalJ())
	}
}

// TestQuantileNearestRank: the one exact quantile, for the batch's float
// aggregates and the timeline's durations alike — nearest rank on the
// sorted order, q clamped to [0, 1], zero for no samples.
func TestQuantileNearestRank(t *testing.T) {
	if Quantile([]time.Duration(nil), 0.5) != 0 || Quantile([]float64{}, 0.95) != 0 {
		t.Fatal("quantile of no samples is not zero")
	}
	durations := []time.Duration{40, 10, 30, 20, 50}
	floats := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct {
		q    float64
		rank int
	}{{-1, 0}, {0, 0}, {0.12, 0}, {0.13, 1}, {0.5, 2}, {0.95, 4}, {2, 4}} {
		if got, want := Quantile(durations, c.q), time.Duration(10*(c.rank+1)); got != want {
			t.Errorf("Quantile(durations, %g) = %v, want %v", c.q, got, want)
		}
		if got, want := Quantile(floats, c.q), float64(c.rank+1); got != want {
			t.Errorf("Quantile(floats, %g) = %g, want %g", c.q, got, want)
		}
	}
}
