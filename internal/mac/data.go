package mac

import (
	"time"

	"rica/internal/channel"
	"rica/internal/packet"
	"rica/internal/sim"
)

// DeliverFunc handles a data packet arriving at a terminal over a data
// channel.
type DeliverFunc func(pkt *packet.Packet, now time.Duration)

// SendResult reports the outcome of a data-plane transmission to the
// sending queue.
type SendResult struct {
	// OK is true when the packet was delivered and acknowledged.
	OK bool
	// Class is the channel class the transmission used (ClassNone when the
	// link did not exist at send time). The forwarding layer accumulates it
	// into the per-packet link-throughput trace for Figure 5(a).
	Class channel.Class
}

// DataPlane transmits data packets over per-pair CDMA channels. Each
// ordered pair's PN code is an independent server, so concurrent Send
// calls on different links never contend; serialization of packets on one
// link is the caller's job (the network layer's per-link queue).
type DataPlane struct {
	kernel   *sim.Kernel
	model    LinkOracle
	handlers []DeliverFunc

	// In-flight exchange arena: per-packet timers carry a slot index on
	// the kernel's closure-free fast path, and finished exchange records
	// are recycled through xfree.
	x     []*exchange
	xFS   []int
	xfree []*exchange
	// Bound phase handlers, built once in NewDataPlane.
	blindFn  sim.ArgHandler
	arriveFn sim.ArgHandler
	ackFn    sim.ArgHandler

	// MaxRetries is how many times a transmission that lost its receiver
	// mid-flight is retried before the link is declared broken.
	MaxRetries int

	// OnAck, if set, observes acknowledgment transmissions; the paper's
	// overhead metric includes data ACK bits.
	OnAck func(sizeBytes int, now time.Duration)

	// OnDataTransmit, if set, observes every data transmission attempt
	// with the class it used (ClassNone for blind attempts into a broken
	// link). The energy meter hangs off this hook.
	OnDataTransmit func(from, to int, class channel.Class, sizeBytes int, now time.Duration)
}

// NewDataPlane builds the data plane over the given channel model.
func NewDataPlane(kernel *sim.Kernel, model LinkOracle) *DataPlane {
	d := &DataPlane{
		kernel:     kernel,
		model:      model,
		handlers:   make([]DeliverFunc, model.N()),
		MaxRetries: 1,
	}
	d.blindFn = d.blindTimedOut
	d.arriveFn = d.arrive
	d.ackFn = d.ackDone
	return d
}

// exchange is one in-flight data transmission: the state the per-attempt
// timers would otherwise capture in closures.
type exchange struct {
	from, to int
	tries    int
	// pkt is the packet while the sender still owns it; it is dropped at
	// hand-off, because the receiver may release it — poisoned, then
	// re-issued — at any time after. id and size are kept by value
	// so the checkpoint capture never has to look through the pointer.
	pkt   *packet.Packet
	id    uint64
	size  int
	done  func(SendResult)
	class channel.Class
	// handed flips when the receiver takes delivery: from then until the
	// ACK airtime closes the exchange, the sender's queue head is a stale
	// reference to a packet the receiver now owns (see EachHandedOff).
	handed bool
}

// Register installs the data delivery handler for terminal id.
func (d *DataPlane) Register(id int, h DeliverFunc) {
	if d.handlers[id] != nil {
		panic("mac: duplicate DataPlane.Register")
	}
	d.handlers[id] = h
}

// Send transmits pkt from terminal from to neighbor to, invoking done
// exactly once with the outcome. The sequence modelled per attempt:
//
//  1. Sample the link class; a non-existent link fails immediately (the
//     receiver left radio range — the paper's link-break trigger).
//  2. The packet occupies the link for size/throughput(class).
//  3. If the receiver is still in range at arrival, it takes delivery and
//     returns a per-hop ACK on the reverse PN code (counted as overhead);
//     otherwise the attempt failed and is retried up to MaxRetries times.
//
// done is always invoked via the event queue, never synchronously, so
// callers may hold per-queue state across the call.
func (d *DataPlane) Send(from, to int, pkt *packet.Packet, done func(SendResult)) {
	if from == to {
		panic("mac: data send to self")
	}
	x := d.allocX()
	x.from, x.to, x.pkt, x.done = from, to, pkt, done
	x.id, x.size = pkt.ID, pkt.Size
	d.attempt(x, d.parkX(x))
}

// ackTimeout is how long a sender waits for the per-hop ACK before
// declaring the attempt failed.
const ackTimeout = 10 * time.Millisecond

func (d *DataPlane) attempt(x *exchange, slot int) {
	now := d.kernel.Now()
	x.class = d.model.Class(x.from, x.to, now)
	if d.OnDataTransmit != nil {
		d.OnDataTransmit(x.from, x.to, x.class, x.size, now)
	}
	if !x.class.Usable() {
		// The receiver is gone, but the sender cannot know that yet: it
		// transmits blind at the most robust rate and only concludes
		// failure when no ACK arrives. This detection latency is what
		// stalls a queue behind a broken link.
		blind := channel.ClassD.TransmitDuration(x.size) + ackTimeout
		d.kernel.ScheduleArg(blind, d.blindFn, slot, 0)
		return
	}
	txDur := x.class.TransmitDuration(x.size)
	d.kernel.ScheduleArg(txDur, d.arriveFn, slot, 0)
}

// blindTimedOut ends one blind attempt into a dead link.
func (d *DataPlane) blindTimedOut(_ time.Duration, slot, _ int) {
	x := d.x[slot]
	if x.tries < d.MaxRetries {
		x.tries++
		d.attempt(x, slot)
		return
	}
	d.finish(x, slot, SendResult{OK: false, Class: channel.ClassNone})
}

// arrive completes a transmission's airtime at the receiver.
func (d *DataPlane) arrive(arrival time.Duration, slot, _ int) {
	x := d.x[slot]
	if !d.model.InRange(x.from, x.to, arrival) {
		// Receiver moved out mid-transmission.
		if x.tries < d.MaxRetries {
			x.tries++
			d.attempt(x, slot)
			return
		}
		d.finish(x, slot, SendResult{OK: false, Class: x.class})
		return
	}
	// Delivery succeeded; the short reverse-code ACK completes the
	// exchange. ACK loss is not modelled separately (the data-arrival
	// range check covers the vulnerable window) but its airtime both
	// counts as overhead and occupies the exchange.
	if d.OnAck != nil {
		d.OnAck(packet.SizeAck, arrival)
	}
	// Per-hop quality trace for the paper's route-quality figures:
	// hops taken, per-hop class throughputs, and CSI hop distances.
	pkt := x.pkt
	pkt.TraversedHops++
	pkt.TraversedBps += x.class.ThroughputBps()
	pkt.TraversedCSI += x.class.HopDistance()
	x.pkt, x.handed = nil, true
	if h := d.handlers[x.to]; h != nil {
		h(pkt, arrival)
	}
	ackDur := x.class.TransmitDuration(packet.SizeAck)
	d.kernel.ScheduleArg(ackDur, d.ackFn, slot, 0)
}

// ackDone closes a successful exchange after the ACK's airtime.
func (d *DataPlane) ackDone(_ time.Duration, slot, _ int) {
	x := d.x[slot]
	d.finish(x, slot, SendResult{OK: true, Class: x.class})
}

// finish reports the outcome and recycles the exchange record. The record
// is freed before done runs so the callback can start the next exchange
// without growing the arena.
func (d *DataPlane) finish(x *exchange, slot int, res SendResult) {
	done := x.done
	d.x[slot] = nil
	d.xFS = append(d.xFS, slot)
	*x = exchange{}
	d.xfree = append(d.xfree, x)
	done(res)
}

// EachHandedOff reports every in-flight exchange whose packet the
// receiver has already taken delivery of (the exchange is inside its ACK
// airtime). When a run's horizon lands in that window, the sender's link
// queue still holds a stale head reference to a packet it no longer
// owns; the end-of-run drain must discard those references instead of
// releasing them, or the arena sees a double free.
func (d *DataPlane) EachHandedOff(fn func(from, to int)) {
	for _, x := range d.x {
		if x != nil && x.handed {
			fn(x.from, x.to)
		}
	}
}

// allocX recycles or allocates an exchange record.
func (d *DataPlane) allocX() *exchange {
	if n := len(d.xfree); n > 0 {
		x := d.xfree[n-1]
		d.xfree[n-1] = nil
		d.xfree = d.xfree[:n-1]
		return x
	}
	return &exchange{}
}

// parkX files x in the slot arena and returns its index.
func (d *DataPlane) parkX(x *exchange) int {
	if n := len(d.xFS); n > 0 {
		slot := d.xFS[n-1]
		d.xFS = d.xFS[:n-1]
		d.x[slot] = x
		return slot
	}
	d.x = append(d.x, x)
	return len(d.x) - 1
}
