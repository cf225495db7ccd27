package channel

import (
	"math"
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/sim"
)

// benchField scales the roaming field with n so terminal density stays at
// the paper's 50 terminals/km². Scaling the population without scaling
// the area would grow every neighbourhood linearly with n, and the
// output size — not the scan — would dominate any algorithm.
func benchField(n int) geom.Field {
	side := 1000 * math.Sqrt(float64(n)/50)
	return geom.Field{Width: side, Height: side}
}

// benchModel builds a model over n random-waypoint terminals at paper
// density — the position-recompute cost of waypoint queries is part of
// what the snapshot layer exists to amortize, so the benchmark keeps it.
func benchModel(n int) *Model {
	streams := sim.NewStreams(11)
	mcfg := mobility.Config{
		Field:    benchField(n),
		MaxSpeed: 10,
		Pause:    3 * time.Second,
	}
	pos := make([]Positioner, n)
	for i := range pos {
		pos[i] = mobility.NewNode(mcfg, streams.StreamAt(0x_30B1, uint64(i)))
	}
	return NewModel(DefaultConfig(), streams, pos)
}

// BenchmarkNeighbors measures a full neighbourhood sweep (every terminal's
// Neighbors at one fresh virtual instant) — the access pattern of flood
// delivery and topology installation.
func BenchmarkNeighbors(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			m := benchModel(n)
			var buf []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i+1) * time.Millisecond
				for j := 0; j < n; j++ {
					buf = m.Neighbors(j, at, buf[:0])
				}
			}
		})
	}
}

// BenchmarkNeighborsBrute is the same sweep against the retained
// brute-force reference scan — the in-tree baseline the grid path is
// compared to.
func BenchmarkNeighborsBrute(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			m := benchModel(n)
			var buf []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i+1) * time.Millisecond
				for j := 0; j < n; j++ {
					buf = m.bruteNeighbors(j, at, buf[:0])
				}
			}
		})
	}
}

// BenchmarkLinkBirth times the lazy creation of one fading link — stream
// seeded in place, initial state drawn — and is in the alloc gate for
// its allocs/op: a link is one object (scripts/alloc_budget.txt). A
// fresh model every 256 births keeps the live set a few megabytes; its
// first births are left untimed so that the stream factory's record
// slice has done its early doublings.
func BenchmarkLinkBirth(b *testing.B) {
	const warm, timed = 600, 256
	pos := make([]Positioner, 42) // 861 pairs
	for i := range pos {
		pos[i] = fixedPos{X: float64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m *Model
	idx := warm + timed
	for i := 0; i < b.N; i++ {
		if idx == warm+timed {
			b.StopTimer()
			m = NewModel(DefaultConfig(), sim.NewStreams(11), pos)
			for idx = 0; idx < warm; idx++ {
				m.linkAt(idx, 0, 0)
			}
			b.StartTimer()
		}
		m.linkAt(idx, 0, 0)
		idx++
	}
}

func sizeLabel(n int) string {
	switch n {
	case 50:
		return "N=50"
	case 200:
		return "N=200"
	default:
		return "N=500"
	}
}
