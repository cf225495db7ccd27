package linkstate

import (
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/routing/routingtest"
)

// airEnv is the scripted Env with the MAC layer's end of a control send:
// the packet goes back to the arena instead of into a record.
type airEnv struct{ *routingtest.Env }

func (e airEnv) SendControl(pkt *packet.Packet) { pkt.Release() }

// benchAgent is terminal 0 of a 50-terminal degree-ten view, warmed: the
// flood history, the relay's slots and the kernel's event pool have
// reached their working size.
func benchAgent() (*Agent, airEnv, []LinkEntry) {
	const n = 50
	boot := routing.NewGraph(n)
	for u := 0; u < n; u++ {
		for k := 1; k <= 5; k++ {
			boot.SetEdge(u, (u+k*7)%n, channel.ClassB.HopDistance())
		}
	}
	env := airEnv{routingtest.New(0, n)}
	env.Packets = packet.NewArena()
	a := New(env, DefaultConfig(), boot)
	var entries []LinkEntry // terminal 25's advertisement
	for v := 0; v < n; v++ {
		if w, ok := boot.Edge(25, v); ok {
			entries = append(entries, LinkEntry{Neighbor: v, Cost: w})
		}
	}
	return a, env, entries
}

// BenchmarkLinkStateLSA is one received advertisement that changes one
// cost of its origin's ten, at a terminal that has seen the origin
// before: the duplicate check, the diff applied to the view, the clone
// parked behind rebroadcast jitter and its send. Nothing in it allocates
// in the steady state (scripts/alloc_budget.txt holds it to 0) — the
// view's edge lists keep their length, the clone comes off the arena's
// free list.
func BenchmarkLinkStateLSA(b *testing.B) {
	a, env, entries := benchAgent()
	costs := []float64{channel.ClassA.HopDistance(), channel.ClassC.HopDistance(), channel.ClassD.HopDistance()}
	lsa := env.NewPacket() // the MAC's delivery copy, which the relayed clone draws its arena from
	lsa.CopyFrom(&packet.Packet{Type: packet.TypeLSA, Src: 25, From: 18, To: packet.Broadcast,
		Size: packet.LSASize(len(entries)), Payload: entries})
	step := func(i int) {
		entries[i%len(entries)].Cost = costs[i%len(costs)]
		lsa.BroadcastID++
		a.HandleControl(lsa, env.Now())
		env.Pump(10 * time.Millisecond) // the relay airs
	}
	for i := 0; i < 2000; i++ { // twenty simulated seconds: several history generations
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkLinkStateOriginate is one originated advertisement: a beacon
// measures a changed class, the link list is edited in place, and the
// flood carries a copy of it — the one allocation the budget allows,
// because the packet and its relayed clones outlive the next edit.
func BenchmarkLinkStateOriginate(b *testing.B) {
	a, env, _ := benchAgent()
	classes := []channel.Class{channel.ClassA, channel.ClassC, channel.ClassD}
	beacon := packet.Packet{Type: packet.TypeBeacon, Src: 7, From: 7, Size: packet.SizeBeacon}
	step := func(i int) {
		env.Classes[7] = classes[i%len(classes)]
		a.HandleControl(&beacon, env.Now())
		env.Pump(10 * time.Millisecond) // the zero-delay origination event runs
	}
	for i := 0; i < 2000; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
