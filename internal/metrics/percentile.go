package metrics

import (
	"cmp"
	"slices"
	"time"
)

// delaySample keeps every delivered packet's end-to-end delay so the
// summary can report distribution statistics, not just the mean — tail
// delay is where routing-loop and queue pathologies hide.
//
// Memory: one int64 per delivered packet; the paper-scale run delivers
// ~10^5 packets, a megabyte at worst.

// DelayPercentiles is the delivered-delay distribution snapshot.
type DelayPercentiles struct {
	P50, P90, P99, Max time.Duration
}

// percentiles computes the distribution points from raw samples.
// The input slice is sorted in place.
func percentiles(samples []time.Duration) DelayPercentiles {
	if len(samples) == 0 {
		return DelayPercentiles{}
	}
	slices.Sort(samples) // ordered sort: no per-call comparator boxing
	at := func(q float64) time.Duration {
		idx := int(q * float64(len(samples)-1))
		return samples[idx]
	}
	return DelayPercentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: samples[len(samples)-1],
	}
}

// Mean returns the arithmetic mean of xs (zero for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (q in [0, 1], nearest-rank on the sorted
// order) of xs, sorting the slice in place. Zero for an empty slice. The
// batch engine's cross-trial p50/p95 aggregates and the timeline's
// per-interval delay percentiles are built on it.
func Quantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	slices.Sort(xs)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return xs[int(q*float64(len(xs)-1)+0.5)]
}
