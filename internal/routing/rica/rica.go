// Package rica implements the paper's contribution: the Receiver-Initiated
// Channel-Adaptive routing protocol (§II).
//
// Route discovery is an RREQ flood whose hop counts accumulate the
// CSI-based hop distance of every traversed link (class A = 1 hop,
// B = 1.67, C = 3.33, D = 5); the destination gathers the competing RREQs
// for a short window and answers the minimum-distance route with an RREP.
//
// The receiver-initiated part is the CSI checker: while a flow is active,
// its destination periodically broadcasts TTL-scoped CSI-checking packets
// (CSIC). Each forwarder measures the channel class the packet arrived
// over, adds the corresponding hop distance, remembers the terminal it
// first heard the packet from as its "possible downstream" toward the
// destination, and rebroadcasts once. The source gathers the checking
// packets that reach it and switches the entire route to the momentarily
// shortest one with a route-update (RUPD) to the new first hop; the rest
// of the path activates lazily as the first data packet flows, and the
// abandoned route simply idles out after a second. Route errors from
// links that are no longer on the current route are ignored, and a source
// that is still receiving checking packets never needs a new flood.
package rica

import (
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/sim"
)

// Config tunes the protocol. Values outside the paper's text are marked.
type Config struct {
	// CheckInterval is the destination's CSIC broadcast period (paper
	// suggests "for example every second").
	CheckInterval time.Duration
	// CollectWindow is the source/destination gathering window (paper:
	// 40 ms).
	CollectWindow time.Duration
	// RouteIdle is the idle expiry of route entries (paper: "for example
	// 1 second").
	RouteIdle time.Duration
	// ActivityTimeout stops a destination's checker after the flow goes
	// quiet (not in the paper; ~3 buffer lifetimes).
	ActivityTimeout time.Duration
	// TTLSlack widens the checking packets' scope beyond the last known
	// geographic path length, letting slightly longer detours be found.
	TTLSlack int
	// FullFloodCSIC disables TTL scoping entirely (ablation switch; the
	// paper argues scoping saves bandwidth).
	FullFloodCSIC bool

	// AdaptiveCheck implements the paper's aside that the checking period
	// "has to be decided by the change speed of the link CSI": the
	// destination tracks how much the CSI distance of arriving data
	// fluctuates and tunes its broadcast period between MinCheckInterval
	// (volatile channel) and MaxCheckInterval (quiet channel).
	AdaptiveCheck    bool
	MinCheckInterval time.Duration
	MaxCheckInterval time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		CheckInterval:    time.Second,
		CollectWindow:    routing.CollectWindow,
		RouteIdle:        time.Second,
		ActivityTimeout:  3 * time.Second,
		TTLSlack:         1,
		MinCheckInterval: 250 * time.Millisecond,
		MaxCheckInterval: 2 * time.Second,
	}
}

// candidateLifetime bounds how long an intermediate's "possible
// downstream" pointer learned from a checking packet stays usable; two
// check intervals keeps one lost broadcast from erasing the path.
const candidateLifetime = 2

// Agent is one terminal's RICA instance.
type Agent struct {
	routing.BaseAgent
	env  network.Env
	cfg  Config
	core *routing.Core

	// Per-destination state, for the destinations this terminal has
	// relayed or gathered checking packets for: as an intermediate, the
	// possible downstream learned from the best copy of each checking
	// packet; as a source, when the last one arrived (REER suppression).
	// A flat probed table — every received checking packet writes here,
	// and a map assignment per copy was a measurable slice of the flood
	// path; arrays indexed by terminal id cost 50 B × N per agent.
	dsts dstTable

	// Source state: per destination, the gathering of checking packets.
	collect map[int]*csicCollect

	// Destination state: one checker per incoming flow source.
	checkers map[int]*checker
	csicID   uint32
}

type candidate struct {
	next int
	hop  float64
	geo  int
	at   time.Duration
}

// dstState is what the agent keeps per destination.
type dstState struct {
	key      int32 // destination id + 1; 0 marks an empty slot
	hasCand  bool  // cand is set (intermediate role)
	seenCSIC bool  // lastCSIC is set (source role)
	cand     candidate
	lastCSIC time.Duration
}

// dstTable is a linear-probed open-addressing table of dstState keyed
// by destination id, sized by the destinations seen (nothing is ever
// removed). Pointers it returns are good until the next at call.
type dstTable struct {
	slots []dstState
	used  int
}

// dstInitSlots sizes a table at first use; it doubles at ~3/4 load.
const dstInitSlots = 8

// slot returns the index holding dst, or the empty one where it belongs.
func (t *dstTable) slot(dst int) int {
	mask := uint32(len(t.slots) - 1)
	i := uint32(dst) * 0x9E3779B9 >> 16 & mask
	for {
		if k := t.slots[i].key; k == int32(dst)+1 || k == 0 {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// find returns dst's state, or nil when there is none.
func (t *dstTable) find(dst int) *dstState {
	if t.used == 0 {
		return nil
	}
	if s := &t.slots[t.slot(dst)]; s.key != 0 {
		return s
	}
	return nil
}

// at returns dst's state, creating it empty on first use.
func (t *dstTable) at(dst int) *dstState {
	if t.used*4 >= len(t.slots)*3 { // includes the empty-table case
		old := t.slots
		t.slots = make([]dstState, max(2*len(old), dstInitSlots))
		for i := range old {
			if old[i].key != 0 {
				t.slots[t.slot(int(old[i].key)-1)] = old[i]
			}
		}
	}
	s := &t.slots[t.slot(dst)]
	if s.key == 0 {
		s.key = int32(dst) + 1
		t.used++
	}
	return s
}

type csicCollect struct {
	best  candidate
	timer sim.Timer
}

type checker struct {
	srcID        int
	timer        sim.Timer
	lastActivity time.Duration
	ttl          int
	running      bool

	// CSI-volatility tracking for the adaptive check period: an
	// exponentially weighted mean of how much consecutive data packets'
	// accumulated CSI distance differs.
	lastCSI    float64
	haveCSI    bool
	volatility float64
}

var _ network.Agent = (*Agent)(nil)

// New builds the terminal's RICA agent.
func New(env network.Env, cfg Config) *Agent {
	a := &Agent{
		env:      env,
		cfg:      cfg,
		collect:  make(map[int]*csicCollect),
		checkers: make(map[int]*checker),
	}
	a.core = routing.NewCore(env, routing.CoreConfig{
		Accumulate: func(pkt *packet.Packet) {
			pkt.HopCount += env.LinkClass(pkt.From).HopDistance()
		},
		CollectWindow:        cfg.CollectWindow,
		RouteIdle:            cfg.RouteIdle,
		RebroadcastImproved:  true, // CSI distances must converge to real shortest routes
		OnQueryAtDestination: a.onQueryAtDestination,
		SuppressREER:         a.suppressREER,
	})
	return a
}

// HandleControl implements network.Agent.
func (a *Agent) HandleControl(pkt *packet.Packet, now time.Duration) {
	if a.core.HandleControl(pkt, now) {
		return
	}
	switch pkt.Type {
	case packet.TypeCSIC:
		a.handleCSIC(pkt, now)
	case packet.TypeRUPD:
		a.handleRUPD(pkt, now)
	}
}

// RouteData implements network.Agent. Beyond the table, an intermediate
// may activate a fresh "possible downstream" pointer — the lazy path
// activation the paper describes for the first data packet after a route
// update.
func (a *Agent) RouteData(pkt *packet.Packet, now time.Duration) {
	if a.core.Forward(pkt, now) {
		return
	}
	if d := a.dsts.find(pkt.Dst); d != nil && d.hasCand && now-d.cand.at <= time.Duration(candidateLifetime)*a.cfg.CheckInterval {
		if c := d.cand; pkt.Src == a.env.ID() || c.next != pkt.From { // split horizon
			a.core.Table.Install(pkt.Dst, c.next, c.hop, c.geo, now)
			a.env.EnqueueData(pkt, c.next)
			return
		}
	}
	if pkt.Src == a.env.ID() {
		a.core.BufferAndDiscover(pkt, now)
		return
	}
	a.env.DropData(pkt, network.DropNoRoute)
}

// DataArrived implements network.Agent: refresh upstream pointers, and at
// the destination feed the flow's checker (activity, TTL, and the CSI
// volatility estimate driving the adaptive check period).
func (a *Agent) DataArrived(pkt *packet.Packet, now time.Duration) {
	a.core.NoteData(pkt, now)
	if pkt.Dst == a.env.ID() {
		ch := a.touchChecker(pkt.Src, pkt.TraversedHops, now)
		if ch.haveCSI {
			delta := pkt.TraversedCSI - ch.lastCSI
			if delta < 0 {
				delta = -delta
			}
			ch.volatility = 0.8*ch.volatility + 0.2*delta
		}
		ch.lastCSI = pkt.TraversedCSI
		ch.haveCSI = true
	}
}

// LinkFailed implements network.Agent. A source that is still receiving
// checking packets does not re-flood: the next check round supplies a
// fresh route (paper §II.D); its packet waits in the pending buffer.
func (a *Agent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.core.Table.InvalidateNext(next)
	if pkt.Src == a.env.ID() {
		if a.suppressREER(pkt.Dst, now) {
			a.core.BufferForRepair(pkt, now)
			return
		}
		a.core.BufferAndDiscover(pkt, now)
		return
	}
	src, dst := pkt.Src, pkt.Dst // DropData recycles the packet
	a.env.DropData(pkt, network.DropLinkBreak)
	a.core.SendREER(src, dst, now)
}

// suppressREER reports whether checking packets for dst arrived recently
// enough that rediscovery is unnecessary.
func (a *Agent) suppressREER(dst int, now time.Duration) bool {
	d := a.dsts.find(dst)
	return d != nil && d.seenCSIC && now-d.lastCSIC <= 2*a.cfg.CheckInterval
}

// --- Destination side: the CSI checker ----------------------------------

// onQueryAtDestination bootstraps the checker when a discovery flood for
// a new flow arrives.
func (a *Agent) onQueryAtDestination(src int, pkt *packet.Packet, now time.Duration) {
	if pkt.Type != packet.TypeRREQ {
		return
	}
	a.touchChecker(src, pkt.GeoHops, now)
}

// touchChecker refreshes (or starts) the checker serving flow src→self.
// geoHops is the latest known geographic path length, which sets the
// checking packets' TTL.
func (a *Agent) touchChecker(src, geoHops int, now time.Duration) *checker {
	ch := a.checkers[src]
	if ch == nil {
		ch = &checker{srcID: src}
		a.checkers[src] = ch
	}
	ch.lastActivity = now
	if geoHops > 0 {
		ch.ttl = geoHops
	}
	if !ch.running {
		ch.running = true
		a.scheduleCheck(ch)
	}
	return ch
}

// checkInterval picks ch's next broadcast period. The fixed configuration
// returns CheckInterval; the adaptive one maps the flow's CSI volatility
// onto [MinCheckInterval, MaxCheckInterval] — one whole hop-distance unit
// of average fluctuation already pins the fastest rate.
func (a *Agent) checkInterval(ch *checker) time.Duration {
	if !a.cfg.AdaptiveCheck {
		return a.cfg.CheckInterval
	}
	frac := ch.volatility // ≈0 quiet … ≥1 volatile
	if frac > 1 {
		frac = 1
	}
	span := a.cfg.MaxCheckInterval - a.cfg.MinCheckInterval
	return a.cfg.MaxCheckInterval - time.Duration(frac*float64(span))
}

// scheduleCheck arms the next periodic CSIC broadcast for ch.
func (a *Agent) scheduleCheck(ch *checker) {
	ch.timer = a.env.Schedule(a.checkInterval(ch), func(now time.Duration) {
		if now-ch.lastActivity > a.cfg.ActivityTimeout {
			ch.running = false // flow went quiet; stop broadcasting
			return
		}
		a.sendCSIC(ch, now)
		a.scheduleCheck(ch)
	})
}

// sendCSIC broadcasts one checking packet for ch's flow.
func (a *Agent) sendCSIC(ch *checker, now time.Duration) {
	a.csicID++
	ttl := 0 // unlimited
	if !a.cfg.FullFloodCSIC {
		ttl = ch.ttl + a.cfg.TTLSlack
		if ttl <= 0 {
			ttl = a.cfg.TTLSlack + 1
		}
	}
	csic := a.env.NewPacket() // recycled by the MAC layer after the flood airs
	csic.CopyFrom(&packet.Packet{
		Type:        packet.TypeCSIC,
		Src:         ch.srcID,   // the flow's source: where the info must arrive
		Dst:         a.env.ID(), // the broadcasting destination
		To:          packet.Broadcast,
		Size:        packet.SizeCSIC,
		BroadcastID: a.csicID,
		TTL:         ttl,
		CreatedAt:   now,
	})
	a.env.SendControl(csic)
}

// --- Checking packet propagation ----------------------------------------

// handleCSIC processes one checking-packet copy.
func (a *Agent) handleCSIC(pkt *packet.Packet, now time.Duration) {
	self := a.env.ID()
	if pkt.Dst == self {
		return // our own broadcast echoed back
	}
	pkt.HopCount += a.env.LinkClass(pkt.From).HopDistance()
	pkt.GeoHops++

	if pkt.Src == self {
		// We are the source this checker serves: gather candidates.
		a.gatherAtSource(pkt, now)
		return
	}
	if _, improved := a.core.History().Improved(pkt, now); !improved {
		return // only first/improving copies are rebroadcast
	}
	// Remember the downstream terminal the best copy came from: it is the
	// next hop toward the destination if the source adopts a route through
	// us, keeping lazy path activation consistent with the metric the
	// source compared.
	d := a.dsts.at(pkt.Dst)
	d.cand, d.hasCand = candidate{next: pkt.From, hop: pkt.HopCount, geo: pkt.GeoHops, at: now}, true

	if pkt.TTL != 0 {
		pkt.TTL--
		if pkt.TTL <= 0 {
			return
		}
	}
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	fwd.Via = pkt.From // paper: rebroadcasts name the terminal they heard
	a.core.Delayed().SendJittered(fwd)
}

// gatherAtSource accumulates checking packets at the flow's source and,
// one collection window after the first arrival, switches to the shortest
// offered route.
func (a *Agent) gatherAtSource(pkt *packet.Packet, now time.Duration) {
	dst := pkt.Dst
	d := a.dsts.at(dst)
	d.lastCSIC, d.seenCSIC = now, true
	cand := candidate{next: pkt.From, hop: pkt.HopCount, geo: pkt.GeoHops, at: now}
	col := a.collect[dst]
	if col == nil {
		col = &csicCollect{best: cand}
		a.collect[dst] = col
		col.timer = a.env.Schedule(a.cfg.CollectWindow, func(at time.Duration) {
			a.decideRoute(dst, at)
		})
		return
	}
	if cand.hop < col.best.hop {
		col.best = cand
	}
}

// decideRoute installs the gathered best route and tells the new first
// hop with a RUPD; pending packets flush onto the fresh route.
func (a *Agent) decideRoute(dst int, now time.Duration) {
	col := a.collect[dst]
	if col == nil {
		return
	}
	delete(a.collect, dst)
	prev := a.core.Table.Peek(dst)
	changed := prev == nil || !prev.Valid || prev.Next != col.best.next
	a.core.Table.Install(dst, col.best.next, col.best.hop, col.best.geo, now)
	if changed {
		rupd := a.env.NewPacket() // recycled by the MAC layer after transmission
		rupd.CopyFrom(&packet.Packet{
			Type:      packet.TypeRUPD,
			Src:       a.env.ID(),
			Dst:       dst,
			To:        col.best.next,
			Size:      packet.SizeRUPD,
			CreatedAt: now,
		})
		a.env.SendControl(rupd)
	}
	a.core.FlushPending(dst, now)
}

// handleRUPD activates this terminal's pending downstream pointer: the
// source has adopted a route whose first hop is us.
func (a *Agent) handleRUPD(pkt *packet.Packet, now time.Duration) {
	if d := a.dsts.find(pkt.Dst); d != nil && d.hasCand {
		c := d.cand
		a.core.Table.Install(pkt.Dst, c.next, c.hop, c.geo, now)
	}
}

// DrainPending implements network.Drainer: once the simulation horizon
// has passed, packets parked behind route queries or jittered relays in
// the shared core are silently released for exact pool-leak accounting.
func (a *Agent) DrainPending() (data, control int) { return a.core.DrainPending() }

// ExportRoutes snapshots the agent's route table for checkpoint
// verification (see routing.Core.ExportRoutes).
func (a *Agent) ExportRoutes() []routing.Entry { return a.core.ExportRoutes() }
