package experiment

import (
	"math"
	"testing"
	"time"

	"rica/internal/metrics"
	"rica/internal/protocol"
)

// fakeResult builds a Result with scripted delivery ratios.
func fakeResult(ratios ...float64) Result {
	r := Result{}
	for _, ratio := range ratios {
		r.Trials = append(r.Trials, metrics.Summary{
			Generated:     100,
			Delivered:     int(ratio * 100),
			DeliveryRatio: ratio,
			AvgDelay:      200 * time.Millisecond,
		})
	}
	return r
}

func TestTrialValues(t *testing.T) {
	r := fakeResult(0.5, 0.7, 0.9)
	vals := r.TrialValues(MetricDelivery)
	want := []float64{50, 70, 90}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-9 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestStdDevKnownValues(t *testing.T) {
	r := fakeResult(0.4, 0.6) // 40 and 60 percent: sd = 14.142...
	got := r.StdDev(MetricDelivery)
	if math.Abs(got-14.142135) > 1e-3 {
		t.Fatalf("StdDev = %v, want ≈14.14", got)
	}
}

func TestStdDevSingleTrialZero(t *testing.T) {
	r := fakeResult(0.5)
	if r.StdDev(MetricDelivery) != 0 || r.CI95(MetricDelivery) != 0 {
		t.Fatal("single-trial spread must be zero")
	}
}

func TestCI95ShrinksWithTrials(t *testing.T) {
	few := fakeResult(0.4, 0.6)
	many := fakeResult(0.4, 0.6, 0.4, 0.6, 0.4, 0.6, 0.4, 0.6)
	if many.CI95(MetricDelivery) >= few.CI95(MetricDelivery) {
		t.Fatalf("CI did not shrink: %v (8 trials) vs %v (2 trials)",
			many.CI95(MetricDelivery), few.CI95(MetricDelivery))
	}
}

func TestCIRealRunIsFinite(t *testing.T) {
	r := onePoint(protocol.AODV, 20, Options{Duration: 10 * time.Second, Trials: 3, BaseSeed: 1})
	for _, m := range []Metric{MetricDelay, MetricDelivery, MetricOverhead} {
		ci := r.CI95(m)
		if math.IsNaN(ci) || ci < 0 {
			t.Fatalf("CI95(%v) = %v", m, ci)
		}
	}
}
