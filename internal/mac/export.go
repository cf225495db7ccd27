package mac

import (
	"time"

	"rica/internal/channel"
	"rica/internal/packet"
)

// This file is the MAC layer's checkpoint seam. Exports are skeletons:
// in-flight transmissions and exchanges reference arena packets and
// pending timers that cannot be serialized directly, so the capture
// records their identity (slot indices, packet ids, deadlines) — enough
// for snapshot verification to prove two processes hold the same
// in-flight population at an instant. All exports are pure reads in
// deterministic (list/slot) order.

// TxState is the skeleton of one common-channel transmission.
type TxState struct {
	From       int
	Start, End time.Duration
	Jam        bool
	PktID      uint64
	PktType    int
	Size       int
}

// SlotPacket is the skeleton of one packet parked in a slot arena.
type SlotPacket struct {
	Slot    int
	PktID   uint64
	PktType int
	Size    int
}

// CommonState is a read-only snapshot of the common channel's in-flight
// population.
type CommonState struct {
	MaxAir   time.Duration
	Active   []TxState    // on-air or recently-finished, in list order
	Slots    []SlotPacket // txSlots awaiting their completion timer
	Deferred []SlotPacket // packets waiting out a backoff
}

// ExportState snapshots the common channel.
func (c *CommonChannel) ExportState() CommonState {
	st := CommonState{MaxAir: c.maxAir}
	for _, t := range c.active {
		st.Active = append(st.Active, txState(t))
	}
	for slot, t := range c.txSlots {
		if t == nil {
			continue
		}
		st.Slots = append(st.Slots, slotPacket(slot, t.pkt))
	}
	for slot, pkt := range c.deferred {
		if pkt == nil {
			continue
		}
		st.Deferred = append(st.Deferred, slotPacket(slot, pkt))
	}
	return st
}

func txState(t *transmission) TxState {
	st := TxState{From: t.from, Start: t.start, End: t.end, Jam: t.jam}
	if t.pkt != nil {
		st.PktID = t.pkt.ID
		st.PktType = int(t.pkt.Type)
		st.Size = t.pkt.Size
	}
	return st
}

func slotPacket(slot int, pkt *packet.Packet) SlotPacket {
	sp := SlotPacket{Slot: slot}
	if pkt != nil {
		sp.PktID = pkt.ID
		sp.PktType = int(pkt.Type)
		sp.Size = pkt.Size
	}
	return sp
}

// ExchangeState is the skeleton of one in-flight data-plane exchange.
type ExchangeState struct {
	Slot     int
	From, To int
	Tries    int
	Class    channel.Class
	Handed   bool
	PktID    uint64
	Size     int
}

// ExportExchanges snapshots the data plane's in-flight exchanges in
// slot order.
func (d *DataPlane) ExportExchanges() []ExchangeState {
	var out []ExchangeState
	for slot, x := range d.x {
		if x == nil {
			continue
		}
		out = append(out, ExchangeState{
			Slot: slot, From: x.from, To: x.to,
			Tries: x.tries, Class: x.class, Handed: x.handed,
			PktID: x.id, Size: x.size,
		})
	}
	return out
}
