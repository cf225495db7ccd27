package routing

import (
	"fmt"
	"testing"
	"time"

	"rica/internal/packet"
)

// floodLoad feeds a History flood copies at a fixed rate: one copy per
// simulated millisecond, four copies per flood instance (the first, two
// that improve on it, one that does not), alternating between the
// FirstCopy and Improved disciplines, each followed by the reply path's
// Lookup. Every generation therefore sees the same 750 new instances,
// which is what "working size" means for the two tables.
type floodLoad struct {
	h   *History
	now time.Duration
	n   uint32
}

// run feeds d of simulated time.
func (l *floodLoad) run(d time.Duration) {
	pkt := packet.Packet{Type: packet.TypeRREQ, Dst: 7, To: packet.Broadcast}
	for end := l.now + d; l.now < end; l.now += time.Millisecond {
		l.n++
		pkt.BroadcastID = l.n / 4
		pkt.Src = int(l.n/4) % 50
		pkt.From = int(l.n % 7)
		pkt.HopCount = float64(8 - min(l.n%4, 2))
		if l.n/4%2 == 0 {
			l.h.FirstCopy(&pkt, l.now)
		} else {
			l.h.Improved(&pkt, l.now)
		}
		l.h.Lookup(pkt.Key())
	}
}

// slots is the storage both generations hold.
func (h *History) slots() int { return len(h.cur.keys) + len(h.prev.keys) }

// BenchmarkHistorySteadyState is the flood history at its working size:
// one op is ten generations of copies, so ten rotations. Each retires a
// table by clearing it, the next generation refills it without growing,
// and nothing is allocated (scripts/alloc_budget.txt holds it to 0).
func BenchmarkHistorySteadyState(b *testing.B) {
	l := floodLoad{h: NewHistory()}
	l.run(4 * HistoryLifetime) // both tables reach their working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.run(10 * HistoryLifetime)
	}
	b.ReportMetric(float64(l.h.slots()), "slots")
}

// chordRing is the degree-ten graph benchmark/layers times ShortestPaths
// over: a ring with chords, connected at every n, costs from five values
// so equal-distance ties are common.
func chordRing(n int) *Graph {
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for k := 1; k <= 5; k++ {
			g.SetEdge(u, (u+k*7)%n, float64(1+(u+k)%5))
		}
	}
	return g
}

// BenchmarkHop is one forwarding lookup over a view that changed since
// the last one — what a link-state terminal pays per packet while LSAs
// arrive faster than packets: the tree is reset and grown as far as the
// destination. The tree's storage is reused, so the steady state
// allocates nothing (scripts/alloc_budget.txt holds it to 0).
func BenchmarkHop(b *testing.B) {
	for _, n := range []int{50, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := chordRing(n)
			var t Tree
			g.Hop(&t, 0, n-1) // sizes the tree's storage
			sink := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset()
				sink += g.Hop(&t, i%n, (i*31+17)%n)
			}
			hopSink = sink
		})
	}
}

var hopSink int

// BenchmarkReplaceNode is one advertisement applied to a view that holds
// the origin's previous one: the same ten neighbours, one cost changed.
// Nothing is inserted or removed, so nothing is allocated.
func BenchmarkReplaceNode(b *testing.B) {
	const n = 50
	g := chordRing(n)
	var links []LinkEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % n
		links = linksOf(g, u, links[:0])
		l := &links[i%len(links)]
		l.Cost = float64(1 + int(l.Cost)%5)
		if !g.ReplaceNode(u, links) {
			b.Fatal("a changed cost changed nothing")
		}
	}
}
