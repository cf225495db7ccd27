package main

import (
	"math"
	"sort"
)

// metric is one named number of a run: the median of its samples with
// the quartiles and the sample count beside it.
type metric struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(unit string, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Unit: unit, N: len(samples), Median: med, Q1: q1, Q3: q3}
}

// single is a metric read once.
func single(unit string, v float64) metric {
	return metric{Unit: unit, N: 1, Median: v, Q1: v, Q3: v}
}

// quartiles cuts the samples as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), so a spread computed from this harness's
// output agrees with one computed from its runs by a script.
func quartiles(samples []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	switch len(v) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := min(max(i*m/n, 1), len(v)-1)
		delta := float64(i*m - j*n)
		return (v[j-1]*(n-delta) + v[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}
