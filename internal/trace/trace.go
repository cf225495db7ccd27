// Package trace records a simulation's packet-level event history — data
// generation, delivery, drops, and control-channel transmissions — into a
// bounded ring buffer. It exists for observability: debugging a protocol
// or demonstrating its behaviour means seeing the sequence of events, not
// just the end-of-run aggregates.
package trace

import (
	"fmt"
	"sync"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	KindGenerated   Kind = iota + 1 // data packet created at its source
	KindDelivered                   // data packet reached its destination
	KindDropped                     // data packet discarded
	KindControl                     // routing packet put on the common channel
	KindControlLost                 // routing packet abandoned to congestion
)

var kindNames = map[Kind]string{
	KindGenerated:   "GEN",
	KindDelivered:   "DLV",
	KindDropped:     "DRP",
	KindControl:     "CTL",
	KindControlLost: "CTL-LOST",
}

// String names the kind for log lines.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At         time.Duration
	Kind       Kind
	Node       int // terminal where the event happened
	PacketID   uint64
	PacketType packet.Type
	Src, Dst   int
	Detail     string // drop reason, control packet type, ...
}

// String renders the event as a log line.
func (e Event) String() string {
	base := fmt.Sprintf("%10s %-8s node=%-2d %s %d→%d",
		e.At.Round(time.Microsecond), e.Kind, e.Node, e.PacketType, e.Src, e.Dst)
	if e.Detail != "" {
		return base + " (" + e.Detail + ")"
	}
	return base
}

// Recorder is a bounded ring of events. The zero value is unusable;
// construct with NewRecorder. Filter, when set, keeps only matching
// events (the total count still counts everything offered).
//
// Recorder is safe for concurrent use: the simulation goroutine appends
// while live observability surfaces (the stats heartbeat, the HTTP
// snapshot endpoint) read Total and Events. Set Filter before the run
// starts; it is read under the same lock but not copied.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
	total  uint64

	Filter func(Event) bool
}

// NewRecorder builds a recorder keeping the most recent capacity events.
// Capacity 0 is valid and retains nothing — Events stays empty while
// Total still counts every offered event — so callers can meter a run
// without storing its history. Negative capacities panic.
func NewRecorder(capacity int) *Recorder {
	if capacity < 0 {
		panic("trace: capacity must not be negative")
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Record offers an event to the ring.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.Filter != nil && !r.Filter(e) {
		return
	}
	if len(r.events) == 0 {
		return // capacity 0: count, retain nothing
	}
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Total reports how many events were offered (including filtered ones).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// The event methods below record one Event per observed occurrence: the
// data-plane three for network.Recorder's events and the control pair
// for the mac.CommonChannel hooks. The world's observation seam calls
// them alongside the other consumers.

func (r *Recorder) recordPacket(kind Kind, node int, pkt *packet.Packet, now time.Duration, detail string) {
	r.Record(Event{
		At: now, Kind: kind, Node: node,
		PacketID: pkt.ID, PacketType: pkt.Type, Src: pkt.Src, Dst: pkt.Dst,
		Detail: detail,
	})
}

// DataGenerated records a data packet created at its source.
func (r *Recorder) DataGenerated(pkt *packet.Packet, now time.Duration) {
	r.recordPacket(KindGenerated, pkt.Src, pkt, now, "")
}

// DataDelivered records a data packet reaching its destination.
func (r *Recorder) DataDelivered(pkt *packet.Packet, now time.Duration) {
	r.recordPacket(KindDelivered, pkt.Dst, pkt, now,
		fmt.Sprintf("delay=%s hops=%d", (now-pkt.CreatedAt).Round(time.Millisecond), pkt.TraversedHops))
}

// DataDropped records a data packet discarded at the terminal that held it.
func (r *Recorder) DataDropped(pkt *packet.Packet, reason network.DropReason, now time.Duration) {
	r.recordPacket(KindDropped, pkt.From, pkt, now, reason.String())
}

// ControlTransmitted records a routing packet put on the common channel
// by terminal from.
func (r *Recorder) ControlTransmitted(pkt *packet.Packet, from int, now time.Duration) {
	r.recordPacket(KindControl, from, pkt, now, "")
}

// ControlDropped records a routing packet terminal from abandoned to
// congestion after exhausting its backoff attempts.
func (r *Recorder) ControlDropped(pkt *packet.Packet, from int, now time.Duration) {
	r.recordPacket(KindControlLost, from, pkt, now, "")
}
