package routing

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing/routingtest"
)

func TestTableLookupInstallInvalidate(t *testing.T) {
	tb := NewTable(time.Second)
	if tb.Lookup(5, 0) != nil {
		t.Fatal("empty table returned an entry")
	}
	tb.Install(5, 2, 3.33, 2, 0)
	e := tb.Lookup(5, 100*time.Millisecond)
	if e == nil || e.Next != 2 || e.HopCount != 3.33 {
		t.Fatalf("Lookup = %+v", e)
	}
	tb.Invalidate(5)
	if tb.Lookup(5, 200*time.Millisecond) != nil {
		t.Fatal("invalidated entry still returned")
	}
	if tb.Peek(5) == nil {
		t.Fatal("Peek must still see invalidated entries")
	}
}

func TestTableIdleExpiry(t *testing.T) {
	tb := NewTable(time.Second)
	tb.Install(3, 1, 1, 1, 0)
	if tb.Lookup(3, 900*time.Millisecond) == nil {
		t.Fatal("entry expired too early")
	}
	if tb.Lookup(3, 1100*time.Millisecond) != nil {
		t.Fatal("idle entry not expired after 1 s (paper's route expiry)")
	}
	// Touch resets the idle clock.
	tb.Install(4, 1, 1, 1, 0)
	tb.Touch(4, 900*time.Millisecond)
	if tb.Lookup(4, 1800*time.Millisecond) == nil {
		t.Fatal("touched entry expired despite recent use")
	}
}

func TestTableZeroTimeoutNeverExpires(t *testing.T) {
	tb := NewTable(0)
	tb.Install(1, 2, 1, 1, 0)
	if tb.Lookup(1, time.Hour) == nil {
		t.Fatal("zero-timeout table expired an entry")
	}
}

func TestInvalidateNext(t *testing.T) {
	tb := NewTable(0)
	tb.Install(1, 9, 1, 1, 0)
	tb.Install(2, 9, 2, 2, 0)
	tb.Install(3, 7, 1, 1, 0)
	affected := tb.InvalidateNext(9)
	if len(affected) != 2 {
		t.Fatalf("affected = %v, want destinations 1 and 2", affected)
	}
	if tb.Lookup(1, 0) != nil || tb.Lookup(2, 0) != nil {
		t.Fatal("routes through dead neighbour still valid")
	}
	if tb.Lookup(3, 0) == nil {
		t.Fatal("unrelated route was invalidated")
	}
}

func TestHistoryFirstCopy(t *testing.T) {
	h := NewHistory()
	pkt := &packet.Packet{Type: packet.TypeRREQ, Src: 1, Dst: 2, BroadcastID: 1, From: 4, HopCount: 1.67, GeoHops: 1}
	rec, first := h.FirstCopy(pkt, time.Second)
	if !first {
		t.Fatal("first copy not recognized")
	}
	if rec.FirstFrom != 4 || rec.HopCount != 1.67 {
		t.Fatalf("record = %+v", rec)
	}
	dup := pkt.Clone()
	dup.From = 9
	dup.HopCount = 1.0
	rec2, first2 := h.FirstCopy(dup, 2*time.Second)
	if first2 {
		t.Fatal("duplicate treated as first copy")
	}
	if rec2.FirstFrom != 4 {
		t.Fatal("duplicate overwrote the reverse pointer")
	}
	if got, ok := h.Lookup(pkt.Key()); !ok || got != rec {
		t.Fatal("Lookup did not find the record")
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		j := Jitter(rng)
		if j < time.Millisecond || j >= RebroadcastJitter {
			t.Fatalf("jitter %v outside [1ms, %v)", j, RebroadcastJitter)
		}
	}
}

// envStub implements the slice of network.Env Pending needs.
type envStub struct {
	network.Env
	drops map[network.DropReason]int
}

func (e *envStub) DropData(_ *packet.Packet, r network.DropReason) { e.drops[r]++ }

func TestPendingFlushAndExpiry(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	old := &packet.Packet{ID: 1}
	fresh := &packet.Packet{ID: 2}
	p.Add(old, 0, env)
	p.Add(fresh, 2*time.Second, env)
	var flushed []uint64
	p.Flush(4*time.Second, env, func(pkt *packet.Packet) { flushed = append(flushed, pkt.ID) })
	if len(flushed) != 1 || flushed[0] != 2 {
		t.Fatalf("flushed %v, want just the fresh packet", flushed)
	}
	if env.drops[network.DropExpired] != 1 {
		t.Fatalf("drops = %v, want one expired", env.drops)
	}
	if p.Len() != 0 {
		t.Fatal("buffer not empty after flush")
	}
}

func TestPendingCapOverflow(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	for i := 0; i < PendingCap+5; i++ {
		p.Add(&packet.Packet{ID: uint64(i)}, 0, env)
	}
	if p.Len() != PendingCap {
		t.Fatalf("Len = %d, want cap %d", p.Len(), PendingCap)
	}
	if env.drops[network.DropCongestion] != 5 {
		t.Fatalf("drops = %v, want 5 congestion", env.drops)
	}
}

func TestPendingDropAll(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	for i := 0; i < 3; i++ {
		p.Add(&packet.Packet{ID: uint64(i)}, 0, env)
	}
	p.DropAll(env, network.DropNoRoute)
	if p.Len() != 0 || env.drops[network.DropNoRoute] != 3 {
		t.Fatalf("after DropAll: len %d drops %v", p.Len(), env.drops)
	}
}

func TestDijkstraLineGraph(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1.67)
	g.SetEdge(2, 3, 5)
	next, dist := g.ShortestPaths(0, nil, nil)
	if next[3] != 1 {
		t.Fatalf("next hop toward 3 = %d, want 1", next[3])
	}
	if want := 1 + 1.67 + 5; dist[3] != want {
		t.Fatalf("dist[3] = %v, want %v", dist[3], want)
	}
	if next[0] != -1 {
		t.Fatalf("next hop to self = %d, want -1", next[0])
	}
}

func TestDijkstraPrefersCheapLongPath(t *testing.T) {
	// Direct edge expensive (class D = 5), two-hop path cheap (1 + 1).
	g := NewGraph(3)
	g.SetEdge(0, 2, 5)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	next, dist := g.ShortestPaths(0, nil, nil)
	if next[2] != 1 {
		t.Fatalf("next hop = %d, want detour via 1", next[2])
	}
	if dist[2] != 2 {
		t.Fatalf("dist = %v, want 2", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	// 2,3 disconnected.
	next, dist := g.ShortestPaths(0, nil, nil)
	if next[2] != -1 || dist[2] < InfiniteHops {
		t.Fatalf("unreachable node: next %d dist %v", next[2], dist[2])
	}
}

func TestDijkstraEdgeRemoval(t *testing.T) {
	g := NewGraph(3)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	g.RemoveEdge(1, 2)
	next, _ := g.ShortestPaths(0, nil, nil)
	if next[2] != -1 {
		t.Fatal("removed edge still routable")
	}
	if _, ok := g.Edge(1, 2); ok {
		t.Fatal("Edge reports removed edge")
	}
}

func TestDijkstraClearNode(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	g.SetEdge(1, 3, 1)
	g.ClearNode(1)
	next, _ := g.ShortestPaths(0, nil, nil)
	for _, dst := range []int{1, 2, 3} {
		if next[dst] != -1 {
			t.Fatalf("route to %d survived ClearNode(1)", dst)
		}
	}
}

func TestDijkstraDeterministic(t *testing.T) {
	// Equal-cost diamond: 0-1-3 and 0-2-3 both cost 2. Repeated runs must
	// pick the same next hop.
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(0, 2, 1)
	g.SetEdge(1, 3, 1)
	g.SetEdge(2, 3, 1)
	first, _ := g.ShortestPaths(0, nil, nil)
	for i := 0; i < 50; i++ {
		next, _ := g.ShortestPaths(0, nil, nil)
		if next[3] != first[3] {
			t.Fatal("equal-cost tie-break is nondeterministic")
		}
	}
	if first[3] != 1 {
		t.Fatalf("tie-break picked %d, want lowest id 1", first[3])
	}
}

// TestDijkstraMatchesBruteForce cross-checks optimal distances against
// exhaustive path enumeration on small random graphs.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 7
		g := NewGraph(n)
		weights := []float64{1, 1.67, 3.33, 5}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.SetEdge(i, j, weights[rng.Intn(len(weights))])
				}
			}
		}
		_, dist := g.ShortestPaths(0, nil, nil)
		brute := bruteDistances(g, 0)
		for v := 0; v < n; v++ {
			if diff := dist[v] - brute[v]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteDistances is Bellman-Ford style relaxation to convergence.
func bruteDistances(g *Graph, src int) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = InfiniteHops
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if w, ok := g.Edge(u, v); ok && dist[u]+w < dist[v] {
					dist[v] = dist[u] + w
				}
			}
		}
	}
	return dist
}

// refHistory is the flood history's contract as a plain map: every
// record it was ever given, and when each was last touched. It decides a
// call only where the contract does — a packed key touched within
// HistoryLifetime must be found with exactly this record, one untouched
// for two lifetimes (or never stored) must be absent, an unpackable key
// is never forgotten — and in between takes the implementation's word.
type refHistory struct {
	recs    map[packet.FloodKey]FloodRecord
	touched map[packet.FloodKey]time.Duration

	mustFind, mustMiss, either int // how often each verdict was reached
}

// expect reports what the contract says of key at now: the record, and
// whether the key must be found, must be absent, or (neither) may be
// either.
func (r *refHistory) expect(key packet.FloodKey, now time.Duration) (rec FloodRecord, found, absent bool) {
	rec, ok := r.recs[key]
	if !ok {
		return rec, false, true // never stored
	}
	_, packs := packKey(key)
	switch age := now - r.touched[key]; {
	case !packs || age <= HistoryLifetime:
		r.mustFind++
		return rec, true, false
	case age >= 2*HistoryLifetime:
		r.mustMiss++
		return rec, false, true
	}
	r.either++
	return rec, false, false
}

// TestHistoryPackedTableMatchesMap is the forgetting law: a seeded loop
// drives the two-generation history and the plain-map contract through
// random FirstCopy/Improved/Lookup sequences whose time gaps fall on
// both sides of HistoryLifetime and of twice it — half the keys revisit
// a recent flood instance, some overflow the packed ranges and spill —
// and every answer the contract decides must be the contract's.
func TestHistoryPackedTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistory()
	ref := &refHistory{recs: map[packet.FloodKey]FloodRecord{}, touched: map[packet.FloodKey]time.Duration{}}
	var recent [32]packet.Packet
	var now time.Duration

	for step := 0; step < 20000; step++ {
		const L = HistoryLifetime
		switch g := rng.Intn(100); {
		case g < 90:
			now += time.Duration(rng.Int63n(int64(L / 150)))
		case g < 96:
			now += time.Duration(rng.Int63n(int64(L / 3)))
		case g < 98: // around one lifetime
			now += L*5/6 + time.Duration(rng.Int63n(int64(L/3)))
		default: // around and beyond two
			now += L*11/6 + time.Duration(rng.Int63n(int64(L*2/3)))
		}
		pkt := &packet.Packet{
			Type:        packet.Type(1 + rng.Intn(11)),
			Src:         rng.Intn(200),
			Dst:         rng.Intn(200),
			BroadcastID: uint32(rng.Intn(300)),
		}
		if step%97 == 0 {
			pkt.Src = 1 << 20 // beyond the packed origin range: spill tier
		}
		if step > 0 && rng.Intn(2) == 0 {
			*pkt = recent[rng.Intn(min(step, len(recent)))] // another copy of a recent flood
		}
		pkt.From, pkt.HopCount, pkt.GeoHops = rng.Intn(200), float64(rng.Intn(40)), rng.Intn(12)
		recent[step%len(recent)] = *pkt
		key := pkt.Key()
		fresh := FloodRecord{FirstFrom: pkt.From, HopCount: pkt.HopCount, GeoHops: pkt.GeoHops, At: now}

		want, found, absent := ref.expect(key, now)
		improving := rng.Intn(2) == 0
		var got FloodRecord
		var isNew bool
		if improving {
			got, isNew = h.Improved(pkt, now)
		} else {
			got, isNew = h.FirstCopy(pkt, now)
		}
		// Where the contract leaves the choice open the history may answer
		// either way; the reference follows whichever it took.
		var next FloodRecord
		ok := false
		if !absent { // as a history holding want answers
			exp, expNew := want, false
			if improving && pkt.HopCount < want.HopCount-metricImprovement {
				exp, expNew = fresh, true
			}
			if got == exp && isNew == expNew {
				next, ok = exp, true
			}
		}
		if !found && !ok { // as a history that has no record of key answers
			if got == fresh && isNew {
				next, ok = fresh, true
			}
		}
		if !ok {
			t.Fatalf("step %d (t=%v): improving=%v answered (%+v, %v) for %v; the contract (must find %v, must miss %v) holds %+v touched at %v",
				step, now, improving, got, isNew, key, found, absent, want, ref.touched[key])
		}
		want = next
		ref.recs[key], ref.touched[key] = want, now

		// The record was touched this instant, so Lookup must find it.
		if got, ok := h.Lookup(key); !ok || got != want {
			t.Fatalf("step %d (t=%v): Lookup = (%+v, %v), want (%+v, true)", step, now, got, ok, want)
		}
	}
	if ref.mustFind < 1000 || ref.mustMiss < 1000 || ref.either < 1000 {
		t.Fatalf("schedule decided found %d, forgotten %d, either %d times: too few of one to test the bounds",
			ref.mustFind, ref.mustMiss, ref.either)
	}
}

// TestHistoryRotationAllocatesNothing pins the other half of the design:
// retiring a generation clears its table and the next one refills it, so
// a history at its working size never allocates — and its storage is set
// by what one generation sees, not by how long the run has lasted.
func TestHistoryRotationAllocatesNothing(t *testing.T) {
	l := floodLoad{h: NewHistory()}
	l.run(4 * HistoryLifetime)
	slots := l.h.slots()
	if allocs := testing.AllocsPerRun(10, func() { l.run(HistoryLifetime) }); allocs != 0 {
		t.Fatalf("a generation at working size (one rotation) allocated %v times", allocs)
	}
	l.run(100 * HistoryLifetime)
	if got := l.h.slots(); got != slots {
		t.Fatalf("storage went from %d to %d slots over 100 more generations of the same load", slots, got)
	}
	// 750 new instances per generation: 1024 slots each, where a history
	// that never forgot would by now hold 86,000 records.
	if slots > 4096 {
		t.Fatalf("%d slots for two generations of 750 instances", slots)
	}
}

// TestHistoryLifetimeIsTheDiscoveryRound pins why three seconds: it is
// the instant a discovery round is given up and the packets waiting on
// it are dropped.
func TestHistoryLifetimeIsTheDiscoveryRound(t *testing.T) {
	if history, pending := HistoryLifetime, PendingLifetime; history != pending {
		t.Fatalf("HistoryLifetime = %v, PendingLifetime = %v", history, pending)
	}
}

// releasingEnv mimics the production network.Node contract that
// DropData is a terminal sink: the dropped packet is released back to
// the arena (where it is poisoned and may be re-issued immediately).
type releasingEnv struct {
	*routingtest.Env
}

func (e releasingEnv) DropData(pkt *packet.Packet, reason network.DropReason) {
	e.Env.DropData(pkt, reason)
	pkt.Release()
}

// TestBufferAndDiscoverSurvivesCongestionRecycle regression-tests the
// pooled-packet congestion path: when the pending buffer is already at
// capacity, Add drops and recycles the incoming packet — the discovery
// flood must still target the packet's real destination, not whatever a
// released (poisoned) record reports.
func TestBufferAndDiscoverSurvivesCongestionRecycle(t *testing.T) {
	env := releasingEnv{routingtest.New(3, 10)}
	env.Packets = packet.NewArena()
	core := NewCore(env, CoreConfig{Accumulate: func(*packet.Packet) {}})

	const dst = 7
	for i := 0; i < PendingCap; i++ {
		filler := env.NewPacket()
		filler.Type, filler.Src, filler.Dst = packet.TypeData, env.ID(), dst
		core.BufferAndDiscover(filler, 0)
	}
	env.Reset() // keep only the traffic caused by the overflowing packet

	over := env.NewPacket()
	over.Type, over.Src, over.Dst = packet.TypeData, env.ID(), dst
	core.BufferAndDiscover(over, 0)

	drops := env.Drops
	if len(drops) != 1 || drops[0].Reason != network.DropCongestion {
		t.Fatalf("overflow packet not dropped as congestion: %+v", drops)
	}
	// The query toward dst is already outstanding from the fill phase, so
	// no packet may have been sent at all — and in particular no spurious
	// RREQ toward whatever a released packet reports.
	for _, p := range env.Sent {
		if p.Type == packet.TypeRREQ && p.Dst != dst {
			t.Fatalf("discovery flood targeted %d, want %d", p.Dst, dst)
		}
	}
	if len(core.queries) != 1 {
		t.Fatalf("spurious discovery after congestion recycle: %d queries running, want 1", len(core.queries))
	}
	if _, running := core.queries[dst]; !running {
		t.Fatal("discovery toward the real destination was lost")
	}
}
