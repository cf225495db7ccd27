package routing

import (
	"sort"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/sim"
)

// FlowKey identifies one unidirectional data flow.
type FlowKey struct {
	Src, Dst int
}

// Candidate is one route offer gathered at a query's destination (an RREQ
// or LQ copy). The packet snapshot carries the protocol's accumulated
// metric fields.
type Candidate struct {
	From    int // neighbour that delivered this copy
	Metric  float64
	GeoHops int
	Payload any
}

// CoreConfig parameterizes the shared on-demand machinery. The five
// points of variation across AODV, RICA, BGCA and ABR are the metric
// accumulation, the destination's gathering window, the candidate
// ordering, the route idle timeout, and what happens on failures.
type CoreConfig struct {
	// Accumulate updates a query packet's metric fields for the link it
	// just traversed (called once per copy, on arrival, before dedupe).
	// AODV adds one hop; RICA/BGCA add the measured CSI hop distance; ABR
	// folds in associativity and load.
	Accumulate func(pkt *packet.Packet)
	// CollectWindow is how long a destination gathers competing copies
	// before replying. Zero reproduces AODV's "first RREQ wins".
	CollectWindow time.Duration
	// Better reports whether candidate a beats b. Nil means smaller
	// Metric wins (ties: earlier arrival).
	Better func(a, b Candidate) bool
	// RouteIdle is the table's idle expiry (paper: 1 s for RICA).
	RouteIdle time.Duration
	// QueryTimeout and MaxRetries bound full discovery floods.
	QueryTimeout time.Duration
	MaxRetries   int
	// RepairTTL and RepairTimeout bound localized queries (LQ). A zero
	// RepairTTL disables local repair (AODV, RICA).
	RepairTTL     int
	RepairTimeout time.Duration
	// RebroadcastImproved makes terminals rebroadcast flood copies whose
	// accumulated metric improves on the best copy seen, instead of only
	// the first copy. Channel-adaptive protocols need this for their CSI
	// distances to converge to real shortest routes; it is also the main
	// source of their extra routing overhead (paper §III.D).
	RebroadcastImproved bool
	// OnRouteInstalled runs after a route to dst is installed or refreshed
	// by an RREP/LREP (not by protocol-specific installs).
	OnRouteInstalled func(dst int, e *Entry, now time.Duration)
	// OnQueryAtDestination runs when this terminal, as the destination of
	// a query flood, first sees a given flood instance (RICA bootstraps
	// its CSI checker here).
	OnQueryAtDestination func(src int, pkt *packet.Packet, now time.Duration)
	// OnQueryFailed runs when a flood of the given kind exhausted its
	// retries; pending packets have already been dropped.
	OnQueryFailed func(dst int, kind packet.Type, now time.Duration)
	// SuppressREER, when set, is consulted before a source reacts to an
	// arriving REER by re-flooding; RICA ignores REERs while CSI checking
	// packets are flowing (paper §II.D).
	SuppressREER func(dst int, now time.Duration) bool
}

// Core implements the protocol-independent part of on-demand routing:
// query floods (full RREQ or TTL-scoped LQ), reverse-path replies, route
// tables with idle expiry, pending-packet buffers, upstream pointers for
// REER relay, and link-failure bookkeeping.
type Core struct {
	env network.Env
	cfg CoreConfig

	Table    *Table
	hist     *History
	pending  map[int]*Pending
	queries  map[int]*queryState
	gather   map[packet.FloodKey]*gatherState
	upstream map[FlowKey]upstreamRec
	delayed  *DelayedSender
	bcast    uint32

	gatherSweepAt time.Duration                // next sweep of gather: once per history generation
	gatherSeen    map[packet.FloodKey]struct{} // audit only: every instance ever gathered
}

type queryState struct {
	kind    packet.Type
	retries int
	timer   sim.Timer
}

// gatherState is one flood instance this terminal answers as the
// query's destination. It outlives the reply so a late copy is not
// answered twice, and is swept with the flood history (sweepGather).
type gatherState struct {
	best    Candidate
	at      time.Duration // first copy
	replied bool
}

type upstreamRec struct {
	node int
	at   time.Duration
}

// upstreamLifetime bounds how long an upstream pointer learned from data
// traffic stays usable for REER relay.
const upstreamLifetime = 3 * time.Second

// NewCore builds the shared machinery around env.
func NewCore(env network.Env, cfg CoreConfig) *Core {
	if cfg.Accumulate == nil {
		panic("routing: CoreConfig.Accumulate is required")
	}
	if cfg.Better == nil {
		cfg.Better = func(a, b Candidate) bool { return a.Metric < b.Metric }
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = DiscoveryTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = MaxDiscoveryRetries
	}
	table := NewTable(cfg.RouteIdle)
	table.OnInstall = env.NoteRouteInstalled
	table.OnInvalidate = env.NoteRouteInvalidated
	hist := NewHistory()
	hist.SetObs(env.Obs())
	c := &Core{
		env:      env,
		cfg:      cfg,
		Table:    table,
		hist:     hist,
		pending:  make(map[int]*Pending),
		queries:  make(map[int]*queryState),
		gather:   make(map[packet.FloodKey]*gatherState),
		upstream: make(map[FlowKey]upstreamRec),
		delayed:  NewDelayedSender(env),
	}
	if misses := env.ForgetAudit(); misses != nil {
		hist.Audit(misses)
		c.gatherSeen = make(map[packet.FloodKey]struct{})
	}
	return c
}

// Delayed exposes the core's closure-free delayed sender so protocols
// sharing the core (RICA's CSIC relay) reuse its arena for their own
// jittered rebroadcasts.
func (c *Core) Delayed() *DelayedSender { return c.delayed }

// Env returns the agent's environment (for protocol code sharing the core).
func (c *Core) Env() network.Env { return c.env }

// History exposes the flood dedupe table to protocol-specific floods.
func (c *Core) History() *History { return c.hist }

// DrainPending implements network.Agent for agents built on the core:
// it silently releases every data packet still parked behind an
// unanswered route query and every control packet waiting on a jittered
// rebroadcast. Called only after the simulation horizon, so nothing is
// recorded or sent. The query-buffered packets are end-to-end data (the
// conservation check's in-flight term); the jittered relays are control.
func (c *Core) DrainPending() (data, control int) {
	for _, p := range c.pending {
		data += p.ReleaseAll()
	}
	control = c.delayed.Drain()
	return data, control
}

// Forward tries to send pkt along a live table route; it reports whether
// it did. Split horizon: a packet is never returned to the neighbour it
// just arrived from, which prevents the transient two-node loops stale
// route updates can otherwise create.
func (c *Core) Forward(pkt *packet.Packet, now time.Duration) bool {
	e := c.Table.Lookup(pkt.Dst, now)
	if e == nil {
		return false
	}
	if pkt.Src != c.env.ID() && e.Next == pkt.From {
		return false
	}
	c.Table.Touch(pkt.Dst, now)
	c.env.EnqueueData(pkt, e.Next)
	return true
}

// BufferAndDiscover holds pkt and ensures a full discovery flood toward
// its destination is running.
func (c *Core) BufferAndDiscover(pkt *packet.Packet, now time.Duration) {
	dst := pkt.Dst // a full buffer drops (and recycles) pkt inside Add
	p := c.pending[dst]
	if p == nil {
		p = &Pending{}
		c.pending[dst] = p
	}
	p.Add(pkt, now, c.env)
	c.StartQuery(dst, packet.TypeRREQ, 0, now)
}

// BufferForRepair holds pkt while a localized repair query runs (BGCA,
// ABR pivots).
func (c *Core) BufferForRepair(pkt *packet.Packet, now time.Duration) {
	p := c.pending[pkt.Dst]
	if p == nil {
		p = &Pending{}
		c.pending[pkt.Dst] = p
	}
	p.Add(pkt, now, c.env)
}

// PendingLen reports how many packets wait for a route to dst.
func (c *Core) PendingLen(dst int) int {
	if p := c.pending[dst]; p != nil {
		return p.Len()
	}
	return 0
}

// StartQuery launches (or joins) a query flood toward dst of the given
// kind: TypeRREQ floods the whole network, TypeLQ is TTL-scoped. No-op if
// a query of that kind is already outstanding.
func (c *Core) StartQuery(dst int, kind packet.Type, ttl int, now time.Duration) {
	if _, running := c.queries[dst]; running {
		return
	}
	qs := &queryState{kind: kind}
	c.queries[dst] = qs
	c.sendQuery(dst, qs, ttl)
}

func (c *Core) sendQuery(dst int, qs *queryState, ttl int) {
	c.bcast++
	pkt := c.env.NewPacket() // recycled by the MAC layer after the flood airs
	pkt.CopyFrom(&packet.Packet{
		Type:        qs.kind,
		Src:         c.env.ID(),
		Dst:         dst,
		To:          packet.Broadcast,
		Size:        packet.SizeOf(qs.kind),
		BroadcastID: c.bcast,
		TTL:         ttl,
		CreatedAt:   c.env.Now(),
	})
	// Mark our own flood seen so echoes are ignored.
	c.hist.FirstCopy(pkt, c.env.Now())
	c.env.SendControl(pkt)

	timeout := c.cfg.QueryTimeout
	if qs.kind == packet.TypeLQ && c.cfg.RepairTimeout > 0 {
		timeout = c.cfg.RepairTimeout
	}
	qs.timer = c.env.Schedule(timeout, func(now time.Duration) {
		c.queryTimedOut(dst, qs, ttl, now)
	})
}

func (c *Core) queryTimedOut(dst int, qs *queryState, ttl int, now time.Duration) {
	if c.queries[dst] != qs {
		return // superseded
	}
	// Local repair queries get a single shot; full floods retry.
	maxRetries := c.cfg.MaxRetries
	if qs.kind == packet.TypeLQ {
		maxRetries = 0
	}
	if qs.retries < maxRetries {
		qs.retries++
		c.sendQuery(dst, qs, ttl)
		return
	}
	delete(c.queries, dst)
	if p := c.pending[dst]; p != nil {
		p.DropAll(c.env, network.DropNoRoute)
	}
	if c.cfg.OnQueryFailed != nil {
		c.cfg.OnQueryFailed(dst, qs.kind, now)
	}
}

// HandleControl processes the core's packet kinds; it reports false for
// kinds the protocol must handle itself (CSIC, beacons, LSAs, RUPD).
func (c *Core) HandleControl(pkt *packet.Packet, now time.Duration) bool {
	switch pkt.Type {
	case packet.TypeRREQ, packet.TypeLQ:
		c.handleQuery(pkt, now)
	case packet.TypeRREP, packet.TypeLREP:
		c.handleReply(pkt, now)
	case packet.TypeREER:
		c.handleREER(pkt, now)
	default:
		return false
	}
	return true
}

// handleQuery processes an RREQ/LQ copy: accumulate the metric, dedupe,
// gather at the destination, or rebroadcast within TTL.
func (c *Core) handleQuery(pkt *packet.Packet, now time.Duration) {
	self := c.env.ID()
	if pkt.Src == self {
		return // own flood echoed back
	}
	c.cfg.Accumulate(pkt)
	pkt.GeoHops++

	if pkt.Dst == self {
		c.gatherAtDestination(pkt, now)
		return
	}
	var forward bool
	if c.cfg.RebroadcastImproved {
		_, forward = c.hist.Improved(pkt, now)
	} else {
		_, forward = c.hist.FirstCopy(pkt, now)
	}
	if !forward {
		return
	}
	if pkt.TTL != 0 {
		pkt.TTL--
		if pkt.TTL <= 0 {
			return // scope exhausted
		}
	}
	fwd := pkt.Clone()
	fwd.To = packet.Broadcast
	c.delayed.SendJittered(fwd)
}

// gatherAtDestination collects copies of one flood and answers the best.
func (c *Core) gatherAtDestination(pkt *packet.Packet, now time.Duration) {
	key := pkt.Key()
	cand := Candidate{From: pkt.From, Metric: pkt.HopCount, GeoHops: pkt.GeoHops, Payload: pkt.Payload}
	if now >= c.gatherSweepAt {
		c.sweepGather(now)
	}
	gs := c.gather[key]
	if gs == nil {
		gs = &gatherState{best: cand, at: now}
		c.gather[key] = gs
		if c.gatherSeen != nil {
			if _, forgotten := c.gatherSeen[key]; forgotten {
				*c.hist.audit.misses++ // a swept instance is being answered again
			}
			c.gatherSeen[key] = struct{}{}
		}
		if c.cfg.OnQueryAtDestination != nil {
			c.cfg.OnQueryAtDestination(pkt.Src, pkt, now)
		}
		if c.cfg.CollectWindow <= 0 {
			c.reply(pkt.Src, key, gs, now) // AODV: first copy wins
			return
		}
		// Copy the scalar out: pkt is a pooled delivery copy that is long
		// recycled by the time the collection window closes.
		src := pkt.Src
		c.env.Schedule(c.cfg.CollectWindow, func(at time.Duration) {
			c.reply(src, key, gs, at)
		})
		return
	}
	if !gs.replied && c.cfg.Better(cand, gs.best) {
		gs.best = cand
	}
}

// sweepGather forgets answered flood instances on the history's terms:
// run by the first gathered copy of each generation, it drops replied
// entries first seen more than two HistoryLifetimes ago. Deleting at
// reply time instead would answer a late copy of the same flood twice.
func (c *Core) sweepGather(now time.Duration) {
	c.gatherSweepAt = generationEnd(now)
	for key, gs := range c.gather {
		if gs.replied && now-gs.at > 2*HistoryLifetime {
			delete(c.gather, key)
		}
	}
}

// reply unicasts the RREP/LREP for the chosen candidate back along the
// reverse path.
func (c *Core) reply(src int, key packet.FloodKey, gs *gatherState, now time.Duration) {
	if gs.replied {
		return
	}
	gs.replied = true
	kind := packet.TypeRREP
	if key.Type() == packet.TypeLQ {
		kind = packet.TypeLREP
	}
	rep := c.env.NewPacket() // recycled by the MAC layer after transmission
	rep.CopyFrom(&packet.Packet{
		Type:        kind,
		Src:         src,          // travels toward the query's origin
		Dst:         int(key.Dst), // the flow destination routes point toward
		To:          gs.best.From,
		Size:        packet.SizeOf(kind),
		BroadcastID: key.BroadcastID,
		GeoHops:     0,
		HopCount:    0,
		CreatedAt:   now,
	})
	c.env.SendControl(rep)
}

// handleReply installs the forward route and retraces the reverse path.
func (c *Core) handleReply(pkt *packet.Packet, now time.Duration) {
	self := c.env.ID()
	if pkt.Dst == self {
		return // our own reply echoed
	}
	c.cfg.Accumulate(pkt)
	pkt.GeoHops++
	e := c.Table.Install(pkt.Dst, pkt.From, pkt.HopCount, pkt.GeoHops, now)
	if c.cfg.OnRouteInstalled != nil {
		c.cfg.OnRouteInstalled(pkt.Dst, e, now)
	}

	if pkt.Src == self {
		// Query answered: flush whatever waited on it.
		if qs := c.queries[pkt.Dst]; qs != nil {
			qs.timer.Cancel()
			delete(c.queries, pkt.Dst)
		}
		c.FlushPending(pkt.Dst, now)
		return
	}
	// Retrace the reverse pointer recorded when the query flood passed:
	// the flood's key was {origin: query source, dst: replying terminal}.
	queryKind := packet.TypeRREQ
	if pkt.Type == packet.TypeLREP {
		queryKind = packet.TypeLQ
	}
	rec, ok := c.hist.Lookup(packet.MakeFloodKey(pkt.Src, pkt.Dst, pkt.BroadcastID, queryKind))
	if !ok {
		return // reverse path lost; the query will time out and retry
	}
	fwd := pkt.Clone()
	fwd.To = rec.FirstFrom
	c.env.SendControl(fwd)
}

// NoteData records forwarding state gleaned from data packets in transit:
// the upstream pointer for REER relay and the forward entry's freshness.
func (c *Core) NoteData(pkt *packet.Packet, now time.Duration) {
	self := c.env.ID()
	if pkt.Dst != self {
		c.upstream[FlowKey{Src: pkt.Src, Dst: pkt.Dst}] = upstreamRec{node: pkt.From, at: now}
	}
}

// FlushPending re-presents every packet waiting on dst to the forwarding
// path; packets that still have no route are dropped.
func (c *Core) FlushPending(dst int, now time.Duration) {
	p := c.pending[dst]
	if p == nil {
		return
	}
	p.Flush(now, c.env, func(pkt *packet.Packet) {
		if !c.Forward(pkt, now) {
			c.env.DropData(pkt, network.DropNoRoute)
		}
	})
}

// LinkFailed is the default data-plane failure reaction: invalidate routes
// through the dead neighbour, and either re-discover (at the source) or
// drop and report upstream with a REER (in transit). Protocols with local
// repair intercept before calling this.
func (c *Core) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	c.Table.InvalidateNext(next)
	if pkt.Src == c.env.ID() {
		c.BufferAndDiscover(pkt, now)
		return
	}
	src, dst := pkt.Src, pkt.Dst // DropData recycles the packet
	c.env.DropData(pkt, network.DropLinkBreak)
	c.SendREER(src, dst, now)
}

// SendREER unicasts a route error toward the flow's source along the
// upstream pointer, if one is fresh.
func (c *Core) SendREER(src, dst int, now time.Duration) {
	up, ok := c.upstream[FlowKey{Src: src, Dst: dst}]
	if !ok || now-up.at > upstreamLifetime {
		return
	}
	reer := c.env.NewPacket() // recycled by the MAC layer after transmission
	reer.CopyFrom(&packet.Packet{
		Type:      packet.TypeREER,
		Src:       src,
		Dst:       dst,
		To:        up.node,
		Via:       c.env.ID(),
		Size:      packet.SizeREER,
		CreatedAt: now,
	})
	c.env.SendControl(reer)
}

// REERAll reports the loss of every known flow through this terminal
// toward dst to the respective sources (a repair pivot giving up).
func (c *Core) REERAll(dst int, now time.Duration) {
	var srcs []int
	for fk, rec := range c.upstream {
		if fk.Dst == dst && now-rec.at <= upstreamLifetime {
			srcs = append(srcs, fk.Src)
		}
	}
	sort.Ints(srcs) // map order is random; transmissions must be deterministic
	for _, src := range srcs {
		c.SendREER(src, dst, now)
	}
}

// handleREER applies the paper's REER discipline: a REER is honoured only
// when its sender is this terminal's current downstream for the flow
// (otherwise it concerns an abandoned route and is ignored); the source
// re-floods unless the protocol suppresses it.
func (c *Core) handleREER(pkt *packet.Packet, now time.Duration) {
	self := c.env.ID()
	e := c.Table.Peek(pkt.Dst)
	if e == nil || e.Next != pkt.From {
		return // stale route's error: ignore (paper §II.D)
	}
	c.Table.Invalidate(pkt.Dst)
	if pkt.Src != self {
		c.SendREER(pkt.Src, pkt.Dst, now)
		return
	}
	if c.cfg.SuppressREER != nil && c.cfg.SuppressREER(pkt.Dst, now) {
		return
	}
	if c.PendingLen(pkt.Dst) > 0 {
		c.StartQuery(pkt.Dst, packet.TypeRREQ, 0, now)
	}
}

// ExportRoutes snapshots the core's route table (see Table.ExportEntries).
// Protocol agents forward to it so the checkpoint capture can verify
// route state without knowing each protocol's internals.
func (c *Core) ExportRoutes() []Entry { return c.Table.ExportEntries() }
