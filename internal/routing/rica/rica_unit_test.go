package rica

import (
	"math/rand"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing/routingtest"
)

// newUnit builds a RICA agent on a scripted env.
func newUnit(id int) (*Agent, *routingtest.Env) {
	env := routingtest.New(id, 10)
	return New(env, DefaultConfig()), env
}

func csic(src, dst, from int, bid uint32, hop float64, ttl int) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeCSIC, Src: src, Dst: dst, From: from,
		To: packet.Broadcast, Size: packet.SizeCSIC,
		BroadcastID: bid, HopCount: hop, TTL: ttl,
	}
}

func TestCSICRebroadcastDecrementsTTL(t *testing.T) {
	a, env := newUnit(5)
	env.Classes[3] = channel.ClassA
	a.HandleControl(csic(8, 9, 3, 1, 0, 4), env.Now())
	env.Pump(50 * time.Millisecond) // let the jittered rebroadcast fire
	sent := env.SentOfType(packet.TypeCSIC)
	if len(sent) != 1 {
		t.Fatalf("rebroadcasts = %d, want 1", len(sent))
	}
	if sent[0].TTL != 3 {
		t.Errorf("TTL = %d, want 3", sent[0].TTL)
	}
	if sent[0].HopCount != 1 { // class A adds hop distance 1
		t.Errorf("HopCount = %v, want 1", sent[0].HopCount)
	}
	if sent[0].Via != 3 {
		t.Errorf("Via = %d, want the upstream terminal 3", sent[0].Via)
	}
}

func TestCSICExpiresAtTTLZero(t *testing.T) {
	a, env := newUnit(5)
	env.Classes[3] = channel.ClassB
	a.HandleControl(csic(8, 9, 3, 1, 0, 1), env.Now()) // TTL 1: consume and stop
	env.Pump(50 * time.Millisecond)
	if n := len(env.SentOfType(packet.TypeCSIC)); n != 0 {
		t.Fatalf("TTL-exhausted packet rebroadcast %d times", n)
	}
}

func TestCSICOnlyImprovedCopiesRebroadcast(t *testing.T) {
	a, env := newUnit(5)
	env.Classes[3] = channel.ClassD // hop distance 5
	env.Classes[4] = channel.ClassA // hop distance 1
	a.HandleControl(csic(8, 9, 3, 1, 0, 5), env.Now())
	a.HandleControl(csic(8, 9, 4, 1, 0, 5), env.Now()) // better: via class A link
	a.HandleControl(csic(8, 9, 4, 1, 2, 5), env.Now()) // worse metric: suppressed
	env.Pump(50 * time.Millisecond)
	sent := env.SentOfType(packet.TypeCSIC)
	if len(sent) != 2 {
		t.Fatalf("rebroadcasts = %d, want 2 (first + improved)", len(sent))
	}
	// The surviving downstream candidate must be the improved one.
	if d := a.dsts.find(9); d == nil || !d.hasCand || d.cand.next != 4 || d.cand.hop != 1 {
		t.Fatalf("destination state = %+v, want candidate next 4 hop 1", d)
	}
}

// TestDstTableMatchesDenseSlices drives the per-destination table and
// the four terminal-indexed slices it replaced through the same seeded
// sequence of the agent's three kinds of access — an intermediate
// storing a candidate, a source stamping a checking packet's arrival,
// and either role reading — and holds every read to the slices' answer,
// across growth from empty to every destination of a 500-terminal field.
func TestDstTableMatchesDenseSlices(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(21))
	var tab dstTable
	cand, candSet := make([]candidate, n), make([]bool, n)
	lastCSIC, csicSeen := make([]time.Duration, n), make([]bool, n)
	seen := 0
	for step := 0; step < 10000; step++ {
		// Few destinations early, all of them by the end: the table is
		// probed at every size it grows through.
		dst := rng.Intn(1 + step*n/10000)
		now := time.Duration(step) * time.Millisecond
		switch rng.Intn(3) {
		case 0:
			c := candidate{next: rng.Intn(n), hop: float64(rng.Intn(40)), geo: rng.Intn(12), at: now}
			d := tab.at(dst)
			d.cand, d.hasCand = c, true
			if !candSet[dst] && !csicSeen[dst] {
				seen++
			}
			cand[dst], candSet[dst] = c, true
		case 1:
			d := tab.at(dst)
			d.lastCSIC, d.seenCSIC = now, true
			if !candSet[dst] && !csicSeen[dst] {
				seen++
			}
			lastCSIC[dst], csicSeen[dst] = now, true
		}
		d := tab.find(dst)
		if d == nil {
			if candSet[dst] || csicSeen[dst] {
				t.Fatalf("step %d: destination %d has state in the slices and none in the table", step, dst)
			}
			continue
		}
		if d.hasCand != candSet[dst] || d.seenCSIC != csicSeen[dst] ||
			(d.hasCand && d.cand != cand[dst]) || (d.seenCSIC && d.lastCSIC != lastCSIC[dst]) {
			t.Fatalf("step %d: destination %d = %+v, slices say cand %+v (%v) lastCSIC %v (%v)",
				step, dst, *d, cand[dst], candSet[dst], lastCSIC[dst], csicSeen[dst])
		}
	}
	if tab.used != seen {
		t.Fatalf("table holds %d destinations, %d were written", tab.used, seen)
	}
	if len(tab.slots) >= 4*n {
		t.Fatalf("%d slots for %d destinations: the table is not sized by use", len(tab.slots), seen)
	}
}

func TestSourceCollectsWindowThenSwitches(t *testing.T) {
	a, env := newUnit(2) // we are the flow source
	env.Classes[6] = channel.ClassC
	env.Classes[7] = channel.ClassA
	// Two CSI-checking copies arrive within the window; the class-A one
	// has the lower total distance.
	a.HandleControl(csic(2, 9, 6, 1, 2.0, 3), env.Now()) // total 2 + 3.33
	a.HandleControl(csic(2, 9, 7, 1, 2.0, 3), env.Now()) // total 2 + 1
	env.Pump(routingCollectWindow() + 20*time.Millisecond)
	rupd := env.SentOfType(packet.TypeRUPD)
	if len(rupd) != 1 {
		t.Fatalf("RUPD count = %d, want 1", len(rupd))
	}
	if rupd[0].To != 7 {
		t.Errorf("RUPD went to %d, want the class-A neighbour 7", rupd[0].To)
	}
	if e := a.core.Table.Lookup(9, env.Now()); e == nil || e.Next != 7 {
		t.Fatalf("route entry = %+v, want next hop 7", e)
	}
}

func routingCollectWindow() time.Duration { return DefaultConfig().CollectWindow }

func TestNoRUPDWhenRouteUnchanged(t *testing.T) {
	a, env := newUnit(2)
	env.Classes[7] = channel.ClassA
	a.HandleControl(csic(2, 9, 7, 1, 1.0, 3), env.Now())
	env.Pump(routingCollectWindow() + 20*time.Millisecond)
	if n := len(env.SentOfType(packet.TypeRUPD)); n != 1 {
		t.Fatalf("first decision sent %d RUPDs, want 1", n)
	}
	env.Reset()
	// Next round offers the same next hop: refresh without a new RUPD.
	a.HandleControl(csic(2, 9, 7, 2, 1.2, 3), env.Now())
	env.Pump(routingCollectWindow() + 20*time.Millisecond)
	if n := len(env.SentOfType(packet.TypeRUPD)); n != 0 {
		t.Fatalf("unchanged route sent %d RUPDs, want 0", n)
	}
}

func TestCheckerStartsOnRREQAndBroadcasts(t *testing.T) {
	a, env := newUnit(9) // we are the destination
	env.Classes[4] = channel.ClassB
	rreq := &packet.Packet{
		Type: packet.TypeRREQ, Src: 2, Dst: 9, From: 4,
		To: packet.Broadcast, Size: packet.SizeRREQ, BroadcastID: 1, GeoHops: 2,
	}
	a.HandleControl(rreq, env.Now())
	env.Pump(DefaultConfig().CheckInterval + 100*time.Millisecond)
	cs := env.SentOfType(packet.TypeCSIC)
	if len(cs) != 1 {
		t.Fatalf("CSIC broadcasts after one interval = %d, want 1", len(cs))
	}
	if cs[0].Src != 2 || cs[0].Dst != 9 {
		t.Errorf("CSIC flow identity = (%d,%d), want (2,9)", cs[0].Src, cs[0].Dst)
	}
	if cs[0].TTL <= 0 {
		t.Errorf("CSIC TTL = %d, want scoped positive", cs[0].TTL)
	}
}

func TestCheckerStopsWhenQuiet(t *testing.T) {
	a, env := newUnit(9)
	env.Classes[4] = channel.ClassB
	a.HandleControl(&packet.Packet{
		Type: packet.TypeRREQ, Src: 2, Dst: 9, From: 4,
		To: packet.Broadcast, Size: packet.SizeRREQ, BroadcastID: 1, GeoHops: 2,
	}, env.Now())
	// No data ever arrives: after ActivityTimeout the checker must go
	// silent.
	env.Pump(10 * time.Second)
	cs := env.SentOfType(packet.TypeCSIC)
	if len(cs) > 4 {
		t.Fatalf("checker kept broadcasting a dead flow: %d CSICs in 10 s", len(cs))
	}
	// Fresh data resurrects it.
	env.Reset()
	a.DataArrived(&packet.Packet{
		Type: packet.TypeData, Src: 2, Dst: 9, From: 4, TraversedHops: 3,
	}, env.Now())
	env.Pump(1500 * time.Millisecond)
	if len(env.SentOfType(packet.TypeCSIC)) == 0 {
		t.Fatal("checker did not restart when the flow resumed")
	}
}

func TestRouteDataUsesFreshCandidate(t *testing.T) {
	a, env := newUnit(5)
	env.Classes[3] = channel.ClassA
	a.HandleControl(csic(8, 9, 3, 1, 0, 5), env.Now()) // downstream candidate: 3
	data := &packet.Packet{Type: packet.TypeData, Src: 8, Dst: 9, From: 2, Size: packet.SizeData}
	a.RouteData(data, env.Now())
	if len(env.Enqueues) != 1 || env.Enqueues[0].Next != 3 {
		t.Fatalf("enqueues = %+v, want via candidate 3", env.Enqueues)
	}
}

func TestRouteDataSplitHorizon(t *testing.T) {
	a, env := newUnit(5)
	env.Classes[3] = channel.ClassA
	a.HandleControl(csic(8, 9, 3, 1, 0, 5), env.Now())
	// The packet came FROM terminal 3; sending it back would loop.
	data := &packet.Packet{Type: packet.TypeData, Src: 8, Dst: 9, From: 3, Size: packet.SizeData}
	a.RouteData(data, env.Now())
	if len(env.Enqueues) != 0 {
		t.Fatalf("packet bounced back to its sender: %+v", env.Enqueues)
	}
	if len(env.Drops) != 1 || env.Drops[0].Reason != network.DropNoRoute {
		t.Fatalf("drops = %+v, want one no-route", env.Drops)
	}
}

func TestREERIgnoredFromNonDownstream(t *testing.T) {
	a, env := newUnit(2)
	env.Classes[7] = channel.ClassA
	a.HandleControl(csic(2, 9, 7, 1, 1.0, 3), env.Now())
	env.Pump(routingCollectWindow() + 20*time.Millisecond) // route via 7 installed
	env.Reset()
	// REER arrives from terminal 6, which is not our downstream: ignore.
	a.HandleControl(&packet.Packet{
		Type: packet.TypeREER, Src: 2, Dst: 9, From: 6, Via: 6, Size: packet.SizeREER,
	}, env.Now())
	if e := a.core.Table.Lookup(9, env.Now()); e == nil {
		t.Fatal("REER from a stale route invalidated the current route")
	}
}

func TestLinkFailedSuppressedWhileChecking(t *testing.T) {
	a, env := newUnit(2)
	env.Classes[7] = channel.ClassA
	a.HandleControl(csic(2, 9, 7, 1, 1.0, 3), env.Now()) // recent CSIC
	env.Pump(routingCollectWindow() + 20*time.Millisecond)
	env.Reset()
	data := &packet.Packet{Type: packet.TypeData, Src: 2, Dst: 9, Size: packet.SizeData}
	a.LinkFailed(7, data, env.Now())
	if n := len(env.SentOfType(packet.TypeRREQ)); n != 0 {
		t.Fatalf("source re-flooded despite live CSI checking (%d RREQs)", n)
	}
	if len(env.Drops) != 0 {
		t.Fatalf("source dropped the packet instead of buffering: %+v", env.Drops)
	}
}
