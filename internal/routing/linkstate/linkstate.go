// Package linkstate implements the table-driven baseline of the paper's
// comparison: a link-state protocol with Dijkstra forwarding over
// CSI-weighted edges. At t = 0 every terminal is installed with an
// accurate view of the whole topology (paper §III.A). From then on each
// terminal monitors its incident links through periodic beacons — when a
// link's channel class changes or a neighbour falls silent, it floods a
// link-state advertisement (LSA) through the common channel. Every
// terminal forwards data packets hop by hop using Dijkstra over its own,
// possibly stale, view.
//
// The paper's finding — and this implementation deliberately reproduces
// the conditions for it — is that the wireless common channel cannot carry
// the flood load: LSAs collide, views diverge, and routing loops form that
// inflate delay and drown packets until their buffer lifetime kills them.
// Nothing here "patches" the loops; they are the measured phenomenon.
package linkstate

import (
	"slices"
	"time"

	"rica/internal/channel"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/routing"
)

// Config tunes the protocol.
type Config struct {
	// BeaconInterval is the neighbour-probing period.
	BeaconInterval time.Duration
	// NeighborTimeout declares a silent neighbour gone.
	NeighborTimeout time.Duration
}

// DefaultConfig returns the paper-faithful settings. Every link change is
// flooded at once, undamped — which is precisely what saturates the
// common channel and produces the routing loops §III reports.
func DefaultConfig() Config {
	return Config{
		BeaconInterval:  time.Second,
		NeighborTimeout: 3500 * time.Millisecond, // three missed beacons
	}
}

// LinkEntry is one advertised incident link; an LSA's payload is a
// []LinkEntry in ascending neighbour order.
type LinkEntry = routing.LinkEntry

// Agent is one terminal's link-state instance.
type Agent struct {
	routing.BaseAgent
	env  network.Env
	cfg  Config
	hist *routing.History

	topo *routing.Graph // this terminal's view of the network
	// tree is the shortest-path tree over topo from this terminal, grown
	// as far as the packets routed since the view last changed needed.
	tree routing.Tree
	// sptDirty says an event that may have changed the view has not been
	// followed by a forwarding lookup yet; the first one is counted.
	sptDirty bool

	myLinks  []LinkEntry     // measured incident links, ascending by neighbour
	lastSeen []time.Duration // by terminal: its last beacon heard here
	knownSeq []lsaGen        // by terminal: the newest LSA applied from it
	seq      uint32

	floodPending bool
	relay        *routing.DelayedSender
	obs          *obs.Registry
}

// lsaGen is the generation of the newest LSA applied from one origin.
type lsaGen struct {
	seq   uint32
	known bool
}

var _ network.Agent = (*Agent)(nil)

// New builds the terminal's agent with boot's accurate topology installed.
// boot is shared read-only across terminals; each agent copies it.
func New(env network.Env, cfg Config, boot *routing.Graph) *Agent {
	a := &Agent{
		env:      env,
		cfg:      cfg,
		relay:    routing.NewDelayedSender(env),
		hist:     routing.NewHistory(),
		topo:     routing.NewGraph(env.NumNodes()),
		lastSeen: make([]time.Duration, env.NumNodes()),
		knownSeq: make([]lsaGen, env.NumNodes()),
		sptDirty: true,
	}
	a.obs = env.Obs()
	a.hist.SetObs(a.obs)
	if misses := env.ForgetAudit(); misses != nil {
		a.hist.Audit(misses)
	}
	n := env.NumNodes()
	a.topo.CopyFrom(boot)
	self := env.ID()
	for j := 0; j < n; j++ {
		if w, ok := boot.Edge(self, j); ok {
			a.myLinks = append(a.myLinks, LinkEntry{Neighbor: j, Cost: w})
		}
	}
	return a
}

// Start implements network.Agent: begin beaconing with a random phase
// spread over the whole interval, so the network's beacons interleave
// instead of colliding in one burst.
func (a *Agent) Start(time.Duration) {
	phase := time.Duration(a.env.Rand().Int63n(int64(a.cfg.BeaconInterval)))
	a.env.Schedule(phase, func(now time.Duration) {
		a.beacon(now)
	})
}

// beacon broadcasts a probe, sweeps silent neighbours, and re-arms.
func (a *Agent) beacon(now time.Duration) {
	b := a.env.NewPacket() // recycled by the MAC layer after transmission
	b.CopyFrom(&packet.Packet{
		Type: packet.TypeBeacon,
		Src:  a.env.ID(),
		To:   packet.Broadcast,
		Size: packet.SizeBeacon,
	})
	a.env.SendControl(b)
	a.sweepSilent(now)
	a.env.Schedule(a.cfg.BeaconInterval+routing.Jitter(a.env.Rand()), func(at time.Duration) {
		a.beacon(at)
	})
}

// sweepSilent removes links whose neighbour has not beaconed lately.
func (a *Agent) sweepSilent(now time.Duration) {
	heard := a.myLinks[:0]
	for _, l := range a.myLinks {
		if now-a.lastSeen[l.Neighbor] > a.cfg.NeighborTimeout {
			a.topo.RemoveEdge(a.env.ID(), l.Neighbor)
			continue
		}
		heard = append(heard, l)
	}
	if len(heard) == len(a.myLinks) {
		return
	}
	a.myLinks = heard
	a.viewChanged()
	a.scheduleFlood()
}

// viewChanged discards what was computed over the view as it was.
func (a *Agent) viewChanged() {
	a.tree.Reset()
	a.sptDirty = true
}

// HandleControl implements network.Agent.
func (a *Agent) HandleControl(pkt *packet.Packet, now time.Duration) {
	switch pkt.Type {
	case packet.TypeBeacon:
		a.noteBeacon(pkt.From, now)
	case packet.TypeLSA:
		a.handleLSA(pkt, now)
	}
}

// noteBeacon measures the beaconing neighbour's current class and floods
// an update when the link cost changed class.
func (a *Agent) noteBeacon(from int, now time.Duration) {
	a.lastSeen[from] = now
	class := a.env.LinkClass(from)
	if !class.Usable() {
		// Heard the beacon but the class says out of range: boundary race;
		// treat as worst class rather than flapping.
		class = channel.ClassD
	}
	cost := class.HopDistance()
	i, ok := slices.BinarySearchFunc(a.myLinks, from, func(l LinkEntry, id int) int { return l.Neighbor - id })
	switch {
	case !ok:
		a.myLinks = slices.Insert(a.myLinks, i, LinkEntry{Neighbor: from, Cost: cost})
	case a.myLinks[i].Cost == cost:
		return
	default:
		a.myLinks[i].Cost = cost
	}
	a.topo.SetEdge(a.env.ID(), from, cost)
	a.viewChanged()
	a.scheduleFlood()
}

// scheduleFlood originates an LSA in an event of its own at this
// instant, one for all the link changes that instant's handlers find.
func (a *Agent) scheduleFlood() {
	if a.floodPending {
		return
	}
	a.floodPending = true
	a.env.Schedule(0, func(at time.Duration) {
		a.floodPending = false
		a.originateLSA(at)
	})
}

// originateLSA floods this terminal's current incident-link list.
func (a *Agent) originateLSA(now time.Duration) {
	a.seq++
	// A copy: the packet and its relayed clones outlive later edits of
	// myLinks in place.
	entries := slices.Clone(a.myLinks)
	pkt := a.env.NewPacket() // recycled by the MAC layer after the flood airs
	pkt.CopyFrom(&packet.Packet{
		Type:        packet.TypeLSA,
		Src:         a.env.ID(),
		To:          packet.Broadcast,
		Size:        packet.LSASize(len(entries)),
		BroadcastID: a.seq,
		Payload:     entries,
		CreatedAt:   now,
	})
	a.hist.FirstCopy(pkt, now) // ignore our own echo
	a.env.SendControl(pkt)
}

// handleLSA applies and relays a received advertisement.
func (a *Agent) handleLSA(pkt *packet.Packet, now time.Duration) {
	if pkt.Src == a.env.ID() {
		return
	}
	if _, first := a.hist.FirstCopy(pkt, now); !first {
		return
	}
	if prev := a.knownSeq[pkt.Src]; !prev.known || newerSeq(pkt.BroadcastID, prev.seq) {
		a.knownSeq[pkt.Src] = lsaGen{seq: pkt.BroadcastID, known: true}
		a.applyLSA(pkt)
	}
	// Relay the first copy of each generation; duplicates were filtered
	// above, and out-of-date generations still relay (their origin's newer
	// LSA carries its own flood), matching plain LSA flooding.
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	a.relay.SendJittered(fwd)
}

// newerSeq compares LSA generations with wraparound tolerance.
func newerSeq(a, b uint32) bool { return int32(a-b) > 0 }

// applyLSA replaces the origin's incident links in this terminal's view.
func (a *Agent) applyLSA(pkt *packet.Packet) {
	entries, ok := pkt.Payload.([]LinkEntry)
	if !ok {
		return
	}
	// Every applied LSA counts as touching the view, as it always has
	// (nextHop); only one that differs from what the view held costs the
	// tree.
	if a.topo.ReplaceNode(pkt.Src, entries) {
		a.tree.Reset()
	}
	a.sptDirty = true
}

// nextHop answers from the shortest-path tree over the current view,
// settled no further than dst (and the lookups before it) required. A
// table-driven protocol has no per-destination install/invalidate churn,
// so the first lookup after the view was touched is reported as one SPT
// recompute and one route install to the environment's telemetry — the
// closest analogue of "the forwarding state changed".
func (a *Agent) nextHop(dst int) int {
	if a.sptDirty {
		a.sptDirty = false
		a.obs.Inc(obs.CSPTRecomputes)
		a.env.NoteRouteInstalled()
	}
	return a.topo.Hop(&a.tree, a.env.ID(), dst)
}

// RouteData implements network.Agent: pure Dijkstra forwarding. There is
// no on-demand fallback; an unreachable destination is a drop.
func (a *Agent) RouteData(pkt *packet.Packet, now time.Duration) {
	next := a.nextHop(pkt.Dst)
	if next < 0 {
		a.env.DropData(pkt, network.DropNoRoute)
		return
	}
	a.env.EnqueueData(pkt, next)
}

// LinkFailed implements network.Agent. A pure table-driven protocol has no
// data-plane repair: the packet is lost, and the broken edge stays in the
// local view until the beacon timeout notices the silent neighbour (the
// paper's terminals learn topology only through flooded updates). This lag
// is the mechanism behind link state's collapse under mobility: packets
// keep marching into dead links for seconds, and the eventual flood races
// stale views into routing loops.
func (a *Agent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.env.DropData(pkt, network.DropLinkBreak)
}

// DrainPending implements network.Agent: after the horizon, LSA relays
// still parked behind rebroadcast jitter are silently returned to the
// pool so end-of-run leak accounting comes out exact. A table-driven
// protocol parks no data packets, so the data count is always zero.
func (a *Agent) DrainPending() (data, control int) { return 0, a.relay.Drain() }
