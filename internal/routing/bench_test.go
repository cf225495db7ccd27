package routing

import (
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
