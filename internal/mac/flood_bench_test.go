package mac

import (
	"math"
	"math/rand"
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
//
// In the plain cases a receiver does nothing but relay, so the fading
// links are never asked about and the channel's link records stay cold.
// N=500-class has every receiver measure the class of the link each copy
// arrived over, as a RICA terminal does for every RREQ and CSI-checking
// copy it hears: the per-receiver fading query that dominates a dense
// RICA run, and what CommonChannel's warm-up before a fan-out exists for.
func BenchmarkFloodDense(b *testing.B) {
	for _, bc := range []struct {
		n       int
		measure bool
	}{{50, false}, {200, false}, {500, false}, {500, true}} {
		n := bc.n
		label := floodLabel(n)
		if bc.measure {
			label += "-class"
		}
		b.Run(label, func(b *testing.B) {
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
			arena := packet.NewArena() // the world's, which every clone below draws from
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				i := i
				c.Register(i, func(pkt *packet.Packet, now time.Duration) {
					if bc.measure {
						m.Class(i, pkt.From, now)
					}
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
				rreq := arena.Get()
				rreq.Type, rreq.From, rreq.To = packet.TypeRREQ, src, packet.Broadcast
				rreq.Size = packet.SizeOf(packet.TypeRREQ)
				c.Send(rreq)
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

// BenchmarkFanOutWarm is the recycler's whole round trip through the MAC
// layer at steady state: one broadcast from the arena heard by the 49
// other terminals of a cluster, every one of which Clones the copy it is
// handed (the keep-it contract) and sends the clone on as a unicast. One
// scratch record serves the 49 deliveries and the 50 packets of an op
// come off the free list the last op refilled, so nothing allocates
// (scripts/alloc_budget.txt holds it to 0): an allocation here is one per
// receiver of every flood copy in a run.
func BenchmarkFanOutWarm(b *testing.B) {
	const n = 50
	pos := make([]channel.Positioner, n)
	for i := range pos {
		pos[i] = fixedPos{X: float64(i % 10 * 20), Y: float64(i / 10 * 20)}
	}
	k, m := testSetup(pos...)
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	arena := packet.NewArena()
	c.Register(0, func(*packet.Packet, time.Duration) {})
	for i := 1; i < n; i++ {
		c.Register(i, func(pkt *packet.Packet, _ time.Duration) {
			if pkt.To != packet.Broadcast {
				return
			}
			rep := pkt.Clone()
			rep.From, rep.To = i, 0
			c.Send(rep)
		})
	}
	op := func() {
		rreq := arena.Get()
		rreq.Type, rreq.To = packet.TypeRREQ, packet.Broadcast
		rreq.Size = packet.SizeOf(packet.TypeRREQ)
		c.Send(rreq)
		k.RunAll()
	}
	for w := 0; w < 200; w++ { // the kernel's queue and the channel's lists reach their size
		op()
	}
	if live := arena.Live(); live != 1 {
		b.Fatalf("%d packets live between broadcasts, want the channel's scratch record alone", live)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
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
