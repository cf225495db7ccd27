package mac

import (
	"math"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/packet"
	"rica/internal/sim"
)

// BenchmarkFloodDense measures one full route-discovery flood: a source
// broadcasts an RREQ on the common channel and every terminal
// rebroadcasts the first copy it hears, CSMA contention, collisions and
// all — the paper's route-request propagation, and the simulator's hot
// path. The waypoint field scales with N at the paper's 50 terminals/km²
// density, so each terminal's neighbourhood (and thus the irreducible
// delivery work) stays constant while the number of broadcast scans
// grows with N.
func BenchmarkFloodDense(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		b.Run(floodLabel(n), func(b *testing.B) {
			k := sim.NewKernel()
			streams := sim.NewStreams(7)
			side := 1000 * math.Sqrt(float64(n)/50)
			mcfg := mobility.Config{
				Field:    geom.Field{Width: side, Height: side},
				MaxSpeed: 10,
				Pause:    3 * time.Second,
			}
			pos := make([]channel.Positioner, n)
			for i := range pos {
				pos[i] = mobility.NewNode(mcfg, streams.StreamAt(0x_30B1, uint64(i)))
			}
			m := channel.NewModel(channel.DefaultConfig(), streams, pos)
			c := NewCommonChannel(k, m, streams.Stream(0x_3AC0))
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				i := i
				c.Register(i, func(pkt *packet.Packet, now time.Duration) {
					if seen[i] {
						return
					}
					seen[i] = true
					fwd := pkt.Clone()
					fwd.From = i
					c.Send(fwd)
				})
			}
			flood := func(src int) {
				for j := range seen {
					seen[j] = false
				}
				seen[src] = true
				c.Send(&packet.Packet{
					Type: packet.TypeRREQ, From: src, To: packet.Broadcast,
					Size: packet.SizeOf(packet.TypeRREQ),
				})
				k.RunAll() // drain the whole flood before the next discovery
			}
			// Measure the steady state of a run. Every trajectory opens with
			// the same pause, during which the grid is exact and the
			// stale-grid machinery idles, so floods start once the field
			// moves; and the first floods grow every terminal's reusable
			// lists and the channel's arenas, so they run before the timer —
			// what is left in allocs/op is what a flood allocates every time
			// (scripts/alloc_budget.txt holds the N=500 case to it).
			k.Run(mcfg.Pause + time.Second)
			for w := 0; w < 4; w++ {
				flood(n - 1 - w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flood(i % n)
			}
		})
	}
}

func floodLabel(n int) string {
	switch n {
	case 50:
		return "N=50"
	case 200:
		return "N=200"
	default:
		return "N=500"
	}
}
