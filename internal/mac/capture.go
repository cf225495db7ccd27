package mac

import (
	"rica/internal/checkpoint"
	"rica/internal/packet"
)

// This file is the MAC layer's part of the checkpoint section MACS.
// In-flight transmissions and exchanges reference arena packets and
// pending timers that cannot be serialized, so the capture writes their
// identity (slot indices, packet ids, deadlines): enough for snapshot
// verification to prove two processes hold the same in-flight population
// at an instant. Both writers are strict reads in deterministic (list or
// slot) order.

// Capture writes the common channel to e: the longest airtime so far,
// the active list in list order, then the transmissions awaiting their
// completion and the packets waiting out a backoff, each in slot order.
// The air stamps (txUntil, airUntil) are not written: they are functions
// of the active list for every value that can still matter.
func (c *CommonChannel) Capture(e *checkpoint.Enc) {
	e.Dur(c.maxAir)
	e.Int(len(c.active))
	for _, t := range c.active {
		e.Int(t.from)
		e.Dur(t.start)
		e.Dur(t.end)
		e.Bool(t.jam)
		capturePacket(e, t.pkt)
	}
	e.Int(occupied(c.txSlots))
	for slot, t := range c.txSlots {
		if t != nil {
			e.Int(slot)
			capturePacket(e, t.pkt)
		}
	}
	e.Int(occupied(c.deferred))
	for slot, pkt := range c.deferred {
		if pkt != nil {
			e.Int(slot)
			capturePacket(e, pkt)
		}
	}
}

// occupied counts the filled slots of a slot arena.
func occupied[T any](slots []*T) int {
	n := 0
	for _, s := range slots {
		if s != nil {
			n++
		}
	}
	return n
}

// capturePacket writes a packet's id, type and size; zeros for none.
func capturePacket(e *checkpoint.Enc, pkt *packet.Packet) {
	if pkt == nil {
		e.U64(0)
		e.Int(0)
		e.Int(0)
		return
	}
	e.U64(pkt.ID)
	e.Int(int(pkt.Type))
	e.Int(pkt.Size)
}

// Capture writes the data plane's in-flight exchanges to e in slot order.
// A handed-off exchange's packet belongs to its receiver, so the id and
// size are the ones the exchange kept by value.
func (d *DataPlane) Capture(e *checkpoint.Enc) {
	e.Int(occupied(d.x))
	for slot, x := range d.x {
		if x != nil {
			e.Int(slot)
			e.Int(x.from)
			e.Int(x.to)
			e.Int(x.tries)
			e.Int(int(x.class))
			e.Bool(x.handed)
			e.U64(x.id)
			e.Int(x.size)
		}
	}
}
