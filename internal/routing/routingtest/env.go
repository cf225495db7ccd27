// Package routingtest provides a scripted network.Env for white-box unit
// tests of the routing protocols: control sends, data enqueues and drops
// are recorded; time and timers run on a real simulation kernel the test
// pumps; per-neighbour channel classes are set directly.
package routingtest

import (
	"math/rand"
	"time"

	"rica/internal/channel"
	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/sim"
)

// Enqueued records one data packet handed to the link layer.
type Enqueued struct {
	Pkt  *packet.Packet
	Next int
}

// Dropped records one discarded data packet.
type Dropped struct {
	Pkt    *packet.Packet
	Reason network.DropReason
}

// Env is the scripted environment. Construct with New, mutate Classes to
// shape what the agent measures, and advance time with Pump.
type Env struct {
	IDVal  int
	NVal   int
	Kernel *sim.Kernel
	RNG    *rand.Rand

	// Classes maps neighbour id to the channel class LinkClass reports;
	// missing entries read as ClassNone (out of range).
	Classes map[int]channel.Class
	// Backlog is what QueueBacklog reports.
	Backlog int
	// Packets is what NewPacket draws from; nil (the default) hands out
	// plain garbage-collected packets.
	Packets *packet.Arena

	Sent     []*packet.Packet
	Enqueues []Enqueued
	Drops    []Dropped
}

var _ network.Env = (*Env)(nil)

// New builds a scripted Env for terminal id in an n-terminal network.
func New(id, n int) *Env {
	return &Env{
		IDVal:   id,
		NVal:    n,
		Kernel:  sim.NewKernel(),
		RNG:     rand.New(rand.NewSource(1)),
		Classes: make(map[int]channel.Class),
	}
}

// Pump advances virtual time by d, firing due timers.
func (e *Env) Pump(d time.Duration) { e.Kernel.Run(e.Kernel.Now() + d) }

// ID implements network.Env.
func (e *Env) ID() int { return e.IDVal }

// NumNodes implements network.Env.
func (e *Env) NumNodes() int { return e.NVal }

// Now implements network.Env.
func (e *Env) Now() time.Duration { return e.Kernel.Now() }

// Schedule implements network.Env.
func (e *Env) Schedule(d time.Duration, fn func(now time.Duration)) sim.Timer {
	return e.Kernel.Schedule(d, fn)
}

// ScheduleArg implements network.Env.
func (e *Env) ScheduleArg(d time.Duration, fn sim.ArgHandler, a0, a1 int) sim.Timer {
	return e.Kernel.ScheduleArg(d, fn, a0, a1)
}

// NewPacket implements network.Env.
func (e *Env) NewPacket() *packet.Packet { return e.Packets.Get() }

// SendControl implements network.Env.
func (e *Env) SendControl(pkt *packet.Packet) {
	pkt.From = e.IDVal
	e.Sent = append(e.Sent, pkt)
}

// EnqueueData implements network.Env.
func (e *Env) EnqueueData(pkt *packet.Packet, next int) {
	e.Enqueues = append(e.Enqueues, Enqueued{Pkt: pkt, Next: next})
}

// DropData implements network.Env.
func (e *Env) DropData(pkt *packet.Packet, reason network.DropReason) {
	e.Drops = append(e.Drops, Dropped{Pkt: pkt, Reason: reason})
}

// LinkClass implements network.Env.
func (e *Env) LinkClass(j int) channel.Class { return e.Classes[j] }

// QueueBacklog implements network.Env.
func (e *Env) QueueBacklog() int { return e.Backlog }

// Rand implements network.Env.
func (e *Env) Rand() *rand.Rand { return e.RNG }

// SentOfType filters recorded control packets by type.
func (e *Env) SentOfType(t packet.Type) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range e.Sent {
		if p.Type == t {
			out = append(out, p)
		}
	}
	return out
}

// Reset clears the recorded traffic (state and clock are kept).
func (e *Env) Reset() {
	e.Sent = nil
	e.Enqueues = nil
	e.Drops = nil
}
