// Package abr implements Associativity-Based Routing, the long-lived-route
// baseline in the paper's comparison. Terminals broadcast periodic beacons
// on the common channel; each neighbour counts consecutive beacons as
// "associativity ticks", a proxy for link stability (a pair that has been
// in range a long time will likely stay in range). Route discovery floods
// like AODV, but the destination gathers candidates and picks the *most
// stable* route — highest summed associativity, with queue load and hop
// count as tie-breakers, which is why ABR's routes run longer than other
// protocols' (paper §III.E). When a route link breaks, the upstream pivot
// holds the flow's packets and performs a TTL-scoped localized query (LQ);
// the queue that builds up while the LQ runs is exactly the delay source
// the paper observes for ABR at high mobility.
package abr

import (
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing"
)

// Config tunes the protocol.
type Config struct {
	// BeaconInterval is the associativity beacon period.
	BeaconInterval time.Duration
	// TickCap bounds a link's stability contribution, so one ancient link
	// cannot dominate a whole path's score.
	TickCap int
	// NeighborTimeout resets a neighbour's ticks after this silence.
	NeighborTimeout time.Duration
	// RepairTTL and RepairTimeout bound localized repair queries.
	RepairTTL     int
	RepairTimeout time.Duration
	// RouteIdle expires unused routes.
	RouteIdle time.Duration
}

// DefaultConfig returns the experiment settings.
func DefaultConfig() Config {
	return Config{
		BeaconInterval:  time.Second,
		TickCap:         10,
		NeighborTimeout: 2500 * time.Millisecond,
		RepairTTL:       3,
		RepairTimeout:   300 * time.Millisecond,
		// Long-lived routes are ABR's signature; a lazy idle expiry keeps
		// re-flood churn (and with it, routing overhead) minimal.
		RouteIdle: 10 * time.Second,
	}
}

// meta is the per-copy accumulator ABR floods carry in Packet.Payload:
// summed link stability and summed queue load along the path.
type meta struct {
	Stab float64
	Load int
}

// assoc tracks one neighbour's associativity.
type assoc struct {
	ticks    int
	lastSeen time.Duration
}

// Agent is one terminal's ABR instance.
type Agent struct {
	routing.BaseAgent
	env  network.Env
	cfg  Config
	core *routing.Core

	neighbors map[int]*assoc
}

var _ network.Agent = (*Agent)(nil)

// New builds the terminal's ABR agent.
func New(env network.Env, cfg Config) *Agent {
	a := &Agent{
		env:       env,
		cfg:       cfg,
		neighbors: make(map[int]*assoc),
	}
	a.core = routing.NewCore(env, routing.CoreConfig{
		Accumulate:    a.accumulate,
		CollectWindow: routing.CollectWindow,
		Better:        better,
		RouteIdle:     cfg.RouteIdle,
		RepairTTL:     cfg.RepairTTL,
		RepairTimeout: cfg.RepairTimeout,
		OnQueryFailed: a.onQueryFailed,
	})
	return a
}

// accumulate folds this terminal's view of the arrival link into a flood
// copy: hop count, the link's capped associativity ticks, and the local
// queue backlog (load).
func (a *Agent) accumulate(pkt *packet.Packet) {
	pkt.HopCount++
	m := meta{}
	if prev, ok := pkt.Payload.(meta); ok {
		m = prev
	}
	m.Stab += float64(a.stability(pkt.From))
	m.Load += a.env.QueueBacklog()
	pkt.Payload = m
}

// stability reports the capped associativity of the link to neighbour j.
func (a *Agent) stability(j int) int {
	n := a.neighbors[j]
	if n == nil || a.env.Now()-n.lastSeen > a.cfg.NeighborTimeout {
		return 0
	}
	if n.ticks > a.cfg.TickCap {
		return a.cfg.TickCap
	}
	return n.ticks
}

// better orders candidates by ABR's selection rule: highest per-link
// stability (summed associativity normalized by path length, so stability
// does not simply reward longer paths), then lightest load, then fewest
// hops. Stable routes still run longer than AODV's because the stability
// criterion overrides hop count whenever an older pairing exists off the
// shortest path.
func better(x, y routing.Candidate) bool {
	// Stability compares in coarse bands so that, once the network has
	// been associated a while (every link near the tick cap), the
	// load criterion actually decides — the load balancing the paper
	// credits for ABR's low-mobility delay advantage.
	bx, by := int(meanStab(x)/2.5), int(meanStab(y)/2.5)
	if bx != by {
		return bx > by
	}
	mx, _ := x.Payload.(meta)
	my, _ := y.Payload.(meta)
	if lx, ly := mx.Load/4, my.Load/4; lx != ly {
		return lx < ly // clearly lighter path wins
	}
	if x.Metric != y.Metric {
		return x.Metric < y.Metric
	}
	return mx.Load < my.Load
}

// meanStab is the candidate's associativity per traversed link.
func meanStab(c routing.Candidate) float64 {
	m, _ := c.Payload.(meta)
	hops := c.Metric
	if hops < 1 {
		hops = 1
	}
	return m.Stab / hops
}

// Start implements network.Agent: begin the beacon cycle with a random
// phase spread over the whole interval so beacons interleave instead of
// colliding in one burst.
func (a *Agent) Start(time.Duration) {
	phase := time.Duration(a.env.Rand().Int63n(int64(a.cfg.BeaconInterval)))
	a.env.Schedule(phase, func(now time.Duration) {
		a.beacon(now)
	})
}

// beacon broadcasts one associativity beacon and re-arms.
func (a *Agent) beacon(time.Duration) {
	b := a.env.NewPacket() // recycled by the MAC layer after transmission
	b.CopyFrom(&packet.Packet{
		Type: packet.TypeBeacon,
		Src:  a.env.ID(),
		To:   packet.Broadcast,
		Size: packet.SizeBeacon,
	})
	a.env.SendControl(b)
	a.env.Schedule(a.cfg.BeaconInterval+routing.Jitter(a.env.Rand()), func(now time.Duration) {
		a.beacon(now)
	})
}

// HandleControl implements network.Agent.
func (a *Agent) HandleControl(pkt *packet.Packet, now time.Duration) {
	if pkt.Type == packet.TypeBeacon {
		a.noteBeacon(pkt.From, now)
		return
	}
	a.core.HandleControl(pkt, now)
}

// noteBeacon counts a neighbour's beacon, resetting ticks after silence
// (the pair separated and re-associated).
func (a *Agent) noteBeacon(from int, now time.Duration) {
	n := a.neighbors[from]
	if n == nil {
		n = &assoc{}
		a.neighbors[from] = n
	}
	if now-n.lastSeen > a.cfg.NeighborTimeout {
		n.ticks = 0
	}
	n.ticks++
	n.lastSeen = now
}

// RouteData implements network.Agent.
func (a *Agent) RouteData(pkt *packet.Packet, now time.Duration) {
	if a.core.Forward(pkt, now) {
		return
	}
	if pkt.Src == a.env.ID() {
		a.core.BufferAndDiscover(pkt, now)
		return
	}
	// An intermediate without a route holds the packet and repairs — ABR's
	// local-query discipline (the source of its long queues).
	a.core.BufferForRepair(pkt, now)
	a.core.StartQuery(pkt.Dst, packet.TypeLQ, a.cfg.RepairTTL, now)
}

// DataArrived implements network.Agent.
func (a *Agent) DataArrived(pkt *packet.Packet, now time.Duration) {
	a.core.NoteData(pkt, now)
}

// LinkFailed implements network.Agent: the pivot holds packets and queries
// locally.
func (a *Agent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.core.Table.InvalidateNext(next)
	dst := pkt.Dst // a full pending buffer drops (and recycles) pkt inside BufferForRepair
	if pkt.Src == a.env.ID() {
		// The source pivot also repairs locally first; a failed repair
		// falls back to a broadcast query via onQueryFailed.
		a.core.BufferForRepair(pkt, now)
		a.core.StartQuery(dst, packet.TypeLQ, a.cfg.RepairTTL, now)
		return
	}
	a.core.BufferForRepair(pkt, now)
	a.core.StartQuery(dst, packet.TypeLQ, a.cfg.RepairTTL, now)
}

// onQueryFailed: a failed localized query reports the break to the flow
// sources; a source falls back to a full flood with the next packet.
func (a *Agent) onQueryFailed(dst int, kind packet.Type, now time.Duration) {
	if kind != packet.TypeLQ {
		return
	}
	a.core.REERAll(dst, now)
}

// DrainPending implements network.Agent: once the simulation horizon
// has passed, packets parked behind route queries or jittered relays in
// the shared core are silently released for exact pool-leak accounting.
func (a *Agent) DrainPending() (data, control int) { return a.core.DrainPending() }

// ExportRoutes snapshots the agent's route table for checkpoint
// verification (see routing.Core.ExportRoutes).
func (a *Agent) ExportRoutes() []routing.Entry { return a.core.ExportRoutes() }
