// Package network provides the per-terminal runtime that sits between the
// MAC layer and a routing protocol: store-and-forward link queues with the
// paper's capacity (10 packets per adjacent-terminal connection) and
// residency limit (3 s), local delivery, and the Agent/Env contract that
// the five routing protocols plug into.
package network

import (
	"fmt"
	"math/rand"
	"time"

	"rica/internal/channel"
	"rica/internal/packet"
	"rica/internal/sim"
)

// DropReason classifies why a data packet died; the delivery-ratio
// analysis in the paper (§III.C) attributes losses to congestion (buffer
// overflow), buffer-lifetime expiry, link breaks, and routing failure.
type DropReason int

// Drop reasons.
const (
	DropCongestion DropReason = iota + 1 // per-link buffer full
	DropExpired                          // exceeded 3 s buffer residency
	DropNoRoute                          // routing gave up finding a route
	DropLinkBreak                        // transmission failed, not repaired
	DropAdversary                        // discarded by a byzantine transit terminal
	dropReasonEnd                        // keep last: new reasons go above
)

// NumDropReasons is how many drop reasons exist; reasons run
// 1..NumDropReasons, so per-reason tables are sized by it and indexed by
// reason-1.
const NumDropReasons = int(dropReasonEnd) - 1

var dropNames = map[DropReason]string{
	DropCongestion: "congestion",
	DropExpired:    "expired",
	DropNoRoute:    "no-route",
	DropLinkBreak:  "link-break",
	DropAdversary:  "adversary",
}

// String names the reason for reports.
func (r DropReason) String() string {
	if s, ok := dropNames[r]; ok {
		return s
	}
	return fmt.Sprintf("DropReason(%d)", int(r))
}

// LinkOracle is the slice of the channel model the node runtime consumes:
// the network size and the instantaneous CSI measurement behind
// Env.LinkClass. Defined here, where it is used, so node tests can
// substitute fakes; *channel.Model is the production implementation.
type LinkOracle interface {
	// N reports the number of terminals.
	N() int
	// Class reports the channel class between i and j at time at.
	Class(i, j int, at time.Duration) channel.Class
}

// Recorder receives the data-plane lifecycle events the metrics layer
// aggregates. In a world every node's Recorder is the world's observation
// seam, which hands each event to the attached consumers; metrics.Collector
// and test fakes implement it directly.
type Recorder interface {
	DataGenerated(pkt *packet.Packet, now time.Duration)
	DataDelivered(pkt *packet.Packet, now time.Duration)
	DataDropped(pkt *packet.Packet, reason DropReason, now time.Duration)
}

// RouteRecorder is an optional extension of Recorder: a recorder that
// also implements it receives route-table churn — entries installed and
// entries invalidated, per terminal — which the timeseries telemetry
// buckets into per-interval convergence curves. NewNode detects the
// extension with a type assertion, so plain Recorders (test fakes) pay
// nothing; the world's observation seam is the one production implementer.
type RouteRecorder interface {
	// RouteInstalled reports that terminal node installed or replaced one
	// route-table entry.
	RouteInstalled(node int, now time.Duration)
	// RouteInvalidated reports that one of terminal node's route entries
	// transitioned from valid to invalid.
	RouteInvalidated(node int, now time.Duration)
}

// Agent is one terminal's routing protocol instance. The network layer
// calls it; it acts through the Env it was constructed with.
type Agent interface {
	// Start runs once when the simulation begins (schedule periodic work
	// here: beacons, CSI checks, LSA refresh).
	Start(now time.Duration)
	// HandleControl processes a routing packet from the common channel.
	HandleControl(pkt *packet.Packet, now time.Duration)
	// RouteData chooses what to do with a data packet that needs a next
	// hop at this terminal — enqueue it (Env.EnqueueData), buffer it
	// pending discovery, or drop it (Env.DropData).
	RouteData(pkt *packet.Packet, now time.Duration)
	// DataArrived observes every data packet arriving at this terminal
	// over a data channel (both in transit and at the destination), before
	// forwarding or delivery. pkt.From is the transmitting neighbour.
	DataArrived(pkt *packet.Packet, now time.Duration)
	// LinkFailed reports that sending pkt to neighbour next failed after
	// MAC retries: the link is gone. The failed packet is the agent's to
	// reroute or drop; queued packets behind it are re-presented through
	// RouteData afterwards.
	LinkFailed(next int, pkt *packet.Packet, now time.Duration)
}

// Drainer is the optional end-of-run extension of Agent: agents that
// park arena packets (query buffers, delayed relays) implement it to
// silently release them once the simulation horizon has passed, so the
// arena's leak accounting comes out exact. DrainPending must not record
// drops or send anything — the run is over — and returns how many
// packets were released, split into end-to-end data packets and
// control/relay packets: the data count is the invariant harness's
// "in flight at the horizon" term in the packet-conservation check
// (generated == delivered + dropped + data drained). Node.Drain
// discovers it by type assertion, the same pattern as RouteRecorder.
type Drainer interface {
	DrainPending() (data, control int)
}

// Env is the service surface a Node exposes to its Agent.
//
// Concurrency: every Agent callback and every Env method runs on the
// world's single event-dispatch goroutine. Agents therefore never need
// locks, and Rand() draws stay in one global order.
type Env interface {
	// ID is this terminal's identifier.
	ID() int
	// NumNodes is the network size (terminals are 0..NumNodes-1).
	NumNodes() int
	// Now is the current virtual time.
	Now() time.Duration
	// Schedule runs fn after d; the returned timer can cancel it.
	Schedule(d time.Duration, fn func(now time.Duration)) sim.Timer
	// ScheduleArg is the allocation-free flavour of Schedule: fn receives
	// a0 and a1 back verbatim instead of capturing state in a closure.
	// Per-packet timers should ride this path; see sim.Kernel.ScheduleArg.
	ScheduleArg(d time.Duration, fn sim.ArgHandler, a0, a1 int) sim.Timer
	// NewPacket returns a zeroed packet from the world's arena. Whatever
	// the agent builds — a flood, a reply, a beacon — starts here and is
	// recycled by the layer it is handed to.
	NewPacket() *packet.Packet
	// SendControl transmits a routing packet on the common channel,
	// stamping pkt.From with this terminal's id.
	SendControl(pkt *packet.Packet)
	// EnqueueData places a data packet on the link queue toward next.
	EnqueueData(pkt *packet.Packet, next int)
	// DropData discards a data packet, recording the reason.
	DropData(pkt *packet.Packet, reason DropReason)
	// LinkClass measures the instantaneous CSI of the link to neighbour j
	// (the measurement the paper's terminals make on packet reception).
	LinkClass(j int) channel.Class
	// QueueBacklog reports the total number of data packets buffered at
	// this terminal (ABR's load-aware route selection reads it).
	QueueBacklog() int
	// Rand is this terminal's private randomness (jitter, backoff).
	Rand() *rand.Rand
}
