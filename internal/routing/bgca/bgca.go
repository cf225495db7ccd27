// Package bgca implements the authors' earlier Bandwidth-Guarded Channel
// Adaptive protocol (WCNC 2002), the paper's second channel-adaptive
// contender. Route discovery is channel-adaptive exactly like RICA's
// (CSI-weighted RREQ flood, destination gathers and answers the minimum
// CSI-distance route), but maintenance is reactive rather than
// receiver-initiated: there are no periodic checking packets. Instead,
// every terminal forwarding a flow *guards* its outgoing link's bandwidth —
// when the link's class throughput falls below the flow's requirement, the
// terminal launches a TTL-scoped localized query (LQ) toward the
// destination and splices in the partial route the LREP confirms. Link
// breaks trigger the same localized repair with the packets held at the
// pivot; only when repair fails does a REER travel back to the source for
// a full re-flood. The paper characterizes this as the "passive or
// reactive" counterpart to RICA's aggressiveness.
package bgca

import (
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing"
)

// Config tunes the protocol.
type Config struct {
	// RequiredBps is the flow bandwidth requirement the guard enforces;
	// the experiments derive it from the offered load (rate × packet
	// bits), e.g. 41 kbps at 10 packets/s.
	RequiredBps float64
	// GuardCooldown bounds how often one terminal re-queries for the same
	// destination while its link stays degraded.
	GuardCooldown time.Duration
	// RepairTTL scopes localized queries in geographic hops.
	RepairTTL int
	// RepairTimeout bounds one localized query round.
	RepairTimeout time.Duration
	// RouteIdle expires unused routes.
	RouteIdle time.Duration
}

// DefaultConfig returns the settings used by the experiments at the given
// offered load in packets/second.
func DefaultConfig(pktPerSec float64) Config {
	return Config{
		RequiredBps:   pktPerSec * packet.SizeData * 8,
		GuardCooldown: time.Second,
		RepairTTL:     4,
		RepairTimeout: 400 * time.Millisecond,
		RouteIdle:     3 * time.Second,
	}
}

// Agent is one terminal's BGCA instance.
type Agent struct {
	routing.BaseAgent
	env  network.Env
	cfg  Config
	core *routing.Core

	lastGuard map[int]time.Duration // destination -> last LQ launch
	lastWeak  map[int]time.Duration // destination -> last observed deficiency
	guarding  map[int]bool          // outstanding LQ was a guard, not a break repair
}

var _ network.Agent = (*Agent)(nil)

// New builds the terminal's BGCA agent.
func New(env network.Env, cfg Config) *Agent {
	a := &Agent{
		env:       env,
		cfg:       cfg,
		lastGuard: make(map[int]time.Duration),
		lastWeak:  make(map[int]time.Duration),
		guarding:  make(map[int]bool),
	}
	a.core = routing.NewCore(env, routing.CoreConfig{
		Accumulate: func(pkt *packet.Packet) {
			pkt.HopCount += env.LinkClass(pkt.From).HopDistance()
		},
		CollectWindow:       routing.CollectWindow,
		RouteIdle:           cfg.RouteIdle,
		RebroadcastImproved: true,
		RepairTTL:           cfg.RepairTTL,
		RepairTimeout:       cfg.RepairTimeout,
		OnQueryFailed:       a.onQueryFailed,
	})
	return a
}

// HandleControl implements network.Agent.
func (a *Agent) HandleControl(pkt *packet.Packet, now time.Duration) {
	a.core.HandleControl(pkt, now)
}

// RouteData implements network.Agent: forward along the table, guarding
// the outgoing link's bandwidth; buffer and flood at the source.
func (a *Agent) RouteData(pkt *packet.Packet, now time.Duration) {
	if e := a.core.Table.Lookup(pkt.Dst, now); e != nil {
		a.guard(pkt.Dst, e.Next, now)
		a.core.Table.Touch(pkt.Dst, now)
		a.env.EnqueueData(pkt, e.Next)
		return
	}
	if pkt.Src == a.env.ID() {
		a.core.BufferAndDiscover(pkt, now)
		return
	}
	a.env.DropData(pkt, network.DropNoRoute)
}

// guard launches a localized repair query when the link toward next can no
// longer carry the flow's required bandwidth (the link is in deep fading
// but not broken, so traffic keeps using it while the query runs). The
// deficiency must persist across two observations at least half a cooldown
// apart — momentary fades are the adaptive modulator's job, not routing's.
func (a *Agent) guard(dst, next int, now time.Duration) {
	if a.env.LinkClass(next).ThroughputBps() >= a.cfg.RequiredBps {
		delete(a.lastWeak, dst)
		return
	}
	first, weak := a.lastWeak[dst]
	if !weak {
		a.lastWeak[dst] = now
		return
	}
	if now-first < a.cfg.GuardCooldown/2 {
		return
	}
	if last, ok := a.lastGuard[dst]; ok && now-last < a.cfg.GuardCooldown {
		return
	}
	a.lastGuard[dst] = now
	a.guarding[dst] = true
	a.core.StartQuery(dst, packet.TypeLQ, a.cfg.RepairTTL, now)
}

// DataArrived implements network.Agent.
func (a *Agent) DataArrived(pkt *packet.Packet, now time.Duration) {
	a.core.NoteData(pkt, now)
}

// LinkFailed implements network.Agent: hold the packet and repair locally;
// the source is told only if the localized query fails.
func (a *Agent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.core.Table.InvalidateNext(next)
	dst := pkt.Dst // a full pending buffer drops (and recycles) pkt inside BufferForRepair
	a.core.BufferForRepair(pkt, now)
	a.guarding[dst] = false // a break escalates past guard semantics
	a.core.StartQuery(dst, packet.TypeLQ, a.cfg.RepairTTL, now)
}

// onQueryFailed reports repair failure upstream. A failed *guard* query is
// benign — the degraded route keeps working and nothing is torn down. A
// failed *break* repair reports upstream so the sources re-flood.
func (a *Agent) onQueryFailed(dst int, kind packet.Type, now time.Duration) {
	if kind != packet.TypeLQ {
		return
	}
	if a.guarding[dst] {
		a.guarding[dst] = false
		return
	}
	a.core.REERAll(dst, now)
	// A source whose own local repair failed falls back to a full flood on
	// the next packet; nothing further to do here.
}

// DrainPending implements network.Agent: once the simulation horizon
// has passed, packets parked behind route queries or jittered relays in
// the shared core are silently released for exact pool-leak accounting.
func (a *Agent) DrainPending() (data, control int) { return a.core.DrainPending() }

// ExportRoutes snapshots the agent's route table for checkpoint
// verification (see routing.Core.ExportRoutes).
func (a *Agent) ExportRoutes() []routing.Entry { return a.core.ExportRoutes() }
