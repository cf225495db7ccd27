package linkstate

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/routing/routingtest"
)

// bootLine builds a 5-terminal line topology 0-1-2-3-4, all class B.
func bootLine() *routing.Graph {
	g := routing.NewGraph(5)
	for i := 0; i < 4; i++ {
		g.SetEdge(i, i+1, channel.ClassB.HopDistance())
	}
	return g
}

func newUnit(id int) (*Agent, *routingtest.Env) {
	env := routingtest.New(id, 5)
	for j := 0; j < 5; j++ {
		env.Classes[j] = channel.ClassB
	}
	return New(env, DefaultConfig(), bootLine()), env
}

func TestBootTopologyForwards(t *testing.T) {
	a, env := newUnit(1)
	data := &packet.Packet{Type: packet.TypeData, Src: 0, Dst: 4, From: 0, Size: packet.SizeData}
	a.RouteData(data, env.Now())
	if len(env.Enqueues) != 1 || env.Enqueues[0].Next != 2 {
		t.Fatalf("enqueues = %+v, want next hop 2 on the line", env.Enqueues)
	}
}

func TestUnreachableDrops(t *testing.T) {
	env := routingtest.New(1, 5)
	g := routing.NewGraph(5)
	g.SetEdge(0, 1, 1) // 2,3,4 disconnected
	a := New(env, DefaultConfig(), g)
	a.RouteData(&packet.Packet{Type: packet.TypeData, Src: 0, Dst: 4, From: 0, Size: packet.SizeData}, env.Now())
	if len(env.Drops) != 1 || env.Drops[0].Reason != network.DropNoRoute {
		t.Fatalf("drops = %+v, want no-route", env.Drops)
	}
}

func TestClassChangeFloodsLSA(t *testing.T) {
	a, env := newUnit(1)
	// Neighbour 2's beacon arrives with the boot class: no flood.
	a.HandleControl(&packet.Packet{Type: packet.TypeBeacon, Src: 2, From: 2, Size: packet.SizeBeacon}, env.Now())
	env.Pump(100 * time.Millisecond)
	if n := len(env.SentOfType(packet.TypeLSA)); n != 0 {
		t.Fatalf("unchanged class flooded %d LSAs", n)
	}
	// The link to 2 degrades to class D: flood.
	env.Classes[2] = channel.ClassD
	a.HandleControl(&packet.Packet{Type: packet.TypeBeacon, Src: 2, From: 2, Size: packet.SizeBeacon}, env.Now())
	env.Pump(100 * time.Millisecond)
	lsas := env.SentOfType(packet.TypeLSA)
	if len(lsas) != 1 {
		t.Fatalf("LSA count = %d, want 1", len(lsas))
	}
	entries := lsas[0].Payload.([]LinkEntry)
	found := false
	for _, e := range entries {
		if e.Neighbor == 2 && e.Cost == channel.ClassD.HopDistance() {
			found = true
		}
	}
	if !found {
		t.Fatalf("LSA entries %+v missing the degraded link", entries)
	}
}

func TestLSAAppliesAndRelaysOncePerGeneration(t *testing.T) {
	a, env := newUnit(1)
	lsa := &packet.Packet{
		Type: packet.TypeLSA, Src: 3, From: 2, To: packet.Broadcast,
		Size: packet.LSASize(1), BroadcastID: 1,
		Payload: []LinkEntry{{Neighbor: 4, Cost: 5}},
	}
	a.HandleControl(lsa, env.Now())
	a.HandleControl(lsa.Clone(), env.Now()) // duplicate copy
	env.Pump(100 * time.Millisecond)
	if n := len(env.SentOfType(packet.TypeLSA)); n != 1 {
		t.Fatalf("relays = %d, want 1", n)
	}
	// The view must now cost 3-4 at 5 (class D), and 3-2 must be gone
	// (the LSA replaces 3's whole neighbour list).
	if w, ok := a.topo.Edge(3, 4); !ok || w != 5 {
		t.Fatalf("edge 3-4 = %v,%v; LSA not applied", w, ok)
	}
	if _, ok := a.topo.Edge(3, 2); ok {
		t.Fatal("stale edge 3-2 survived the replacing LSA")
	}
}

func TestStaleLSAGenerationIgnoredForState(t *testing.T) {
	a, env := newUnit(1)
	newer := &packet.Packet{
		Type: packet.TypeLSA, Src: 3, From: 2, To: packet.Broadcast,
		Size: packet.LSASize(1), BroadcastID: 5,
		Payload: []LinkEntry{{Neighbor: 4, Cost: 1}},
	}
	older := &packet.Packet{
		Type: packet.TypeLSA, Src: 3, From: 4, To: packet.Broadcast,
		Size: packet.LSASize(1), BroadcastID: 4,
		Payload: []LinkEntry{{Neighbor: 4, Cost: 5}},
	}
	a.HandleControl(newer, env.Now())
	a.HandleControl(older, env.Now())
	if w, _ := a.topo.Edge(3, 4); w != 1 {
		t.Fatalf("older generation overwrote newer state: cost %v", w)
	}
}

func TestSilentNeighborSweptAndFlooded(t *testing.T) {
	a, env := newUnit(1)
	a.Start(env.Now())
	// Keep neighbour 0 alive, let neighbour 2 go silent.
	stop := env.Now() + 6*time.Second
	for env.Now() < stop {
		a.HandleControl(&packet.Packet{Type: packet.TypeBeacon, Src: 0, From: 0, Size: packet.SizeBeacon}, env.Now())
		env.Pump(time.Second)
	}
	if _, ok := a.topo.Edge(1, 2); ok {
		t.Fatal("silent neighbour's edge survived the sweep")
	}
	if _, ok := a.topo.Edge(0, 1); !ok {
		t.Fatal("live neighbour's edge was swept")
	}
	if len(env.SentOfType(packet.TypeLSA)) == 0 {
		t.Fatal("sweep did not flood the topology change")
	}
}

func TestLinkFailedDropsWithoutRepair(t *testing.T) {
	a, env := newUnit(1)
	data := &packet.Packet{Type: packet.TypeData, Src: 0, Dst: 4, From: 0, Size: packet.SizeData}
	a.LinkFailed(2, data, env.Now())
	if len(env.Drops) != 1 || env.Drops[0].Reason != network.DropLinkBreak {
		t.Fatalf("drops = %+v, want link-break (no data-plane repair)", env.Drops)
	}
	// The local view must be unchanged: detection is beacon-driven only.
	if _, ok := a.topo.Edge(1, 2); !ok {
		t.Fatal("data-plane failure removed the edge; the paper's protocol learns only from beacons")
	}
}

func TestNewerSeqWraparound(t *testing.T) {
	if !newerSeq(1, 0) || newerSeq(0, 1) {
		t.Fatal("basic ordering broken")
	}
	// Wraparound: 0 is newer than MaxUint32.
	if !newerSeq(0, ^uint32(0)) {
		t.Fatal("wraparound ordering broken")
	}
}

func TestOwnLSAEchoIgnored(t *testing.T) {
	a, env := newUnit(1)
	env.Classes[2] = channel.ClassD
	a.HandleControl(&packet.Packet{Type: packet.TypeBeacon, Src: 2, From: 2, Size: packet.SizeBeacon}, env.Now())
	env.Pump(100 * time.Millisecond)
	own := env.SentOfType(packet.TypeLSA)[0]
	env.Reset()
	echo := own.Clone()
	echo.From = 2
	a.HandleControl(echo, env.Now())
	env.Pump(100 * time.Millisecond)
	if n := len(env.SentOfType(packet.TypeLSA)); n != 0 {
		t.Fatalf("own echoed LSA relayed %d times", n)
	}
}

// countingEnv is the scripted Env with the two seams a link-state agent
// reports through made visible: the obs registry and route-install
// telemetry.
type countingEnv struct {
	*routingtest.Env
	reg      *obs.Registry
	installs int
}

func (e *countingEnv) Obs() *obs.Registry    { return e.reg }
func (e *countingEnv) NoteRouteInstalled()   { e.installs++ }
func (e *countingEnv) NoteRouteInvalidated() {}

// TestForwardingFollowsTheViewLaw drives one agent through a seeded
// 10k-step mix of everything that edits its view — beacons at changing
// classes, neighbours falling silent and being swept, advertisements
// from every origin (changed, repeated, out of date) — and after every
// step routes packets to random destinations. Each must go where a full
// Dijkstra over a fresh copy of the view sends it, so a tree kept across
// an edit it should have been reset by shows as a wrong hop; and what is
// counted must be what was always counted: one recompute and one route
// install for the first lookup after each beacon-measured change, sweep
// or applied advertisement, whether or not the view differs for it.
func TestForwardingFollowsTheViewLaw(t *testing.T) {
	const n, self = 24, 7
	rng := rand.New(rand.NewSource(31))
	boot := routing.NewGraph(n)
	for i := 0; i < n; i++ {
		for k := 1; k <= 3; k++ {
			boot.SetEdge(i, (i+k*5)%n, channel.ClassB.HopDistance())
		}
	}
	env := &countingEnv{Env: routingtest.New(self, n), reg: obs.NewRegistry()}
	classes := []channel.Class{channel.ClassA, channel.ClassB, channel.ClassC, channel.ClassD}
	a := New(env, DefaultConfig(), boot)
	a.Start(env.Now())

	gen := make([]uint32, n)
	wantCount := 0
	dirty := true // a fresh agent has consulted nothing yet
	viewCopy := func() *routing.Graph {
		g := routing.NewGraph(n)
		g.CopyFrom(a.topo)
		return g
	}
	kept, swept := 0, 0
	for step := 0; step < 10_000; step++ {
		switch k := rng.Intn(10); {
		case k < 3: // a beacon from anyone, at whatever class the link has now
			from := rng.Intn(n)
			if from == self {
				continue
			}
			env.Classes[from] = classes[rng.Intn(len(classes))]
			before := slices.Clone(a.myLinks)
			a.HandleControl(&packet.Packet{Type: packet.TypeBeacon, Src: from, From: from, Size: packet.SizeBeacon}, env.Now())
			if !slices.Equal(before, a.myLinks) {
				dirty = true
			}
		case k < 8: // an advertisement: mostly the origin's last one with a cost changed
			origin := rng.Intn(n)
			if origin == self {
				continue
			}
			var entries []LinkEntry
			for v := 0; v < n; v++ {
				w, has := a.topo.Edge(origin, v)
				if has && rng.Intn(6) == 0 {
					w = classes[rng.Intn(len(classes))].HopDistance()
				}
				if has && rng.Intn(12) > 0 || !has && v != origin && rng.Intn(3*n) == 0 {
					if !has {
						w = channel.ClassC.HopDistance()
					}
					entries = append(entries, LinkEntry{Neighbor: v, Cost: w})
				}
			}
			id := gen[origin] + 1
			if rng.Intn(5) == 0 && id > 2 {
				id -= 2 // an out-of-date generation: relayed, never applied
			} else {
				gen[origin] = id
				dirty = true
				if !viewCopy().ReplaceNode(origin, entries) {
					kept++
				}
			}
			a.HandleControl(&packet.Packet{Type: packet.TypeLSA, Src: origin, From: origin, To: packet.Broadcast,
				Size: packet.LSASize(len(entries)), BroadcastID: id, Payload: entries}, env.Now())
		default: // time passes: beacons go out and silent neighbours are swept
			links := len(a.myLinks)
			env.Pump(time.Duration(200+rng.Intn(1500)) * time.Millisecond)
			if len(a.myLinks) != links {
				swept++
				dirty = true
			}
		}
		next, _ := viewCopy().ShortestPaths(self, nil, nil)
		for k := rng.Intn(3); k > 0; k-- {
			dst := rng.Intn(n)
			if dst == self {
				continue
			}
			if dirty {
				dirty = false
				wantCount++
			}
			env.Reset()
			a.RouteData(&packet.Packet{Type: packet.TypeData, Src: self, Dst: dst, From: self, Size: packet.SizeData}, env.Now())
			got := -1
			if len(env.Enqueues) == 1 {
				got = env.Enqueues[0].Next
			} else if len(env.Drops) != 1 || env.Drops[0].Reason != network.DropNoRoute {
				t.Fatalf("step %d: routing to %d enqueued %d and dropped %+v", step, dst, len(env.Enqueues), env.Drops)
			}
			if got != next[dst] {
				t.Fatalf("step %d: packet for %d sent to %d, Dijkstra over the view says %d", step, dst, got, next[dst])
			}
		}
		if got := env.reg.Counter(obs.CSPTRecomputes); got != uint64(wantCount) || env.installs != wantCount {
			t.Fatalf("step %d: %d recomputes and %d route installs counted, want %d of each", step, got, env.installs, wantCount)
		}
	}
	if kept < 100 || swept < 20 {
		t.Fatalf("the walk applied %d advertisements that changed nothing and swept %d times: it is not exercising what it claims", kept, swept)
	}
}
