package channel

import (
	"fmt"
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
// its allocs/op: a link is one object and its stream's vector another
// (scripts/alloc_budget.txt). A
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

// BenchmarkLinkRevive times one parked link's first draw: the stream
// takes a vector off the pool, seeds it and steps it as many times as it
// had drawn, and draws — at three draw counts (the paper's cell parks
// links at up to 30k). It is in the alloc gate at zero: the vector is
// one a parked link released. Every 256 first draws the links are
// parked again, untimed.
func BenchmarkLinkRevive(b *testing.B) {
	for _, draws := range []int{1_000, 10_000, 30_000} {
		b.Run(fmt.Sprintf("draws=%dk", draws/1000), func(b *testing.B) {
			const links = 256
			pos := make([]Positioner, 24) // 276 pairs
			for i := range pos {
				pos[i] = fixedPos{X: float64(i)}
			}
			m := NewModel(DefaultConfig(), sim.NewStreams(11), pos)
			for idx := 0; idx < links; idx++ {
				r := m.linkAt(idx, 0, 0).rng
				for range draws - 3 { // init drew about three
					r.Uint64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			idx := links
			for i := 0; i < b.N; i++ {
				if idx == links {
					b.StopTimer()
					m.parkIdle(time.Hour)
					idx = 0
					b.StartTimer()
				}
				m.linkAt(idx, 0, 0).rng.Uint64()
				idx++
			}
		})
	}
}

// BenchmarkParkSweep times what every grid rebuild adds: the sweep over
// the pair index when no link has gone idle, after one survey of the
// whole field (each neighbourhood scan followed by the class toward
// every neighbour) has given every pair in range its link.
func BenchmarkParkSweep(b *testing.B) {
	for _, n := range []int{50, 500} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			m := benchModel(n)
			const at = time.Millisecond
			var buf []int
			for i := 0; i < n; i++ {
				buf = m.Neighbors(i, at, buf[:0])
				for _, j := range buf {
					m.Class(i, j, at)
				}
			}
			b.ReportMetric(float64(m.LinkCount()), "links")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.parkIdle(at)
			}
		})
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
