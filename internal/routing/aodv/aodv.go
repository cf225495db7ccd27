// Package aodv implements the AODV-style baseline the paper compares
// against: on-demand route discovery with plain hop counts where the
// destination answers only the first arriving RREQ (paper §III.B), route
// errors propagate to the source, and the source recovers with a fresh
// full flood. It is deliberately channel-oblivious — the protocol never
// consults CSI — which is exactly the shortcoming RICA addresses.
package aodv

import (
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing"
)

// ActiveRouteTimeout is how long an unused AODV route stays valid.
const ActiveRouteTimeout = 3 * time.Second

// Agent is one terminal's AODV instance.
type Agent struct {
	routing.BaseAgent
	env  network.Env
	core *routing.Core
}

var _ network.Agent = (*Agent)(nil)

// New builds the terminal's AODV agent.
func New(env network.Env) *Agent {
	a := &Agent{env: env}
	a.core = routing.NewCore(env, routing.CoreConfig{
		// Plain hop count, no channel awareness.
		Accumulate:    func(pkt *packet.Packet) { pkt.HopCount++ },
		CollectWindow: 0, // destination replies to the first RREQ only
		RouteIdle:     ActiveRouteTimeout,
	})
	return a
}

// HandleControl implements network.Agent.
func (a *Agent) HandleControl(pkt *packet.Packet, now time.Duration) {
	a.core.HandleControl(pkt, now)
}

// RouteData implements network.Agent: use the table, or buffer and flood
// at the source; intermediates without a route drop (AODV has no local
// repair — the paper attributes its link-break losses to this).
func (a *Agent) RouteData(pkt *packet.Packet, now time.Duration) {
	if a.core.Forward(pkt, now) {
		return
	}
	if pkt.Src == a.env.ID() {
		a.core.BufferAndDiscover(pkt, now)
		return
	}
	a.env.DropData(pkt, network.DropNoRoute)
}

// DataArrived implements network.Agent.
func (a *Agent) DataArrived(pkt *packet.Packet, now time.Duration) {
	a.core.NoteData(pkt, now)
}

// LinkFailed implements network.Agent.
func (a *Agent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.core.LinkFailed(next, pkt, now)
}

// DrainPending implements network.Agent: once the simulation horizon
// has passed, packets parked behind route queries or jittered relays in
// the shared core are silently released for exact pool-leak accounting.
func (a *Agent) DrainPending() (data, control int) { return a.core.DrainPending() }

// ExportRoutes snapshots the agent's route table for checkpoint
// verification (see routing.Core.ExportRoutes).
func (a *Agent) ExportRoutes() []routing.Entry { return a.core.ExportRoutes() }
