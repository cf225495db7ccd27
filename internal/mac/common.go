// Package mac models the paper's multi-code CDMA medium access layer in
// two halves:
//
//   - CommonChannel: the shared 250 kbps signalling channel carrying every
//     routing packet, with unslotted CSMA/CA — carrier sensing within radio
//     range, randomized exponential backoff, and destructive collisions at
//     receivers reached by overlapping transmissions (hidden terminals).
//     The paper assumes this channel is robust against fading, so fading
//     never corrupts it; only contention does.
//
//   - DataPlane: per-link CDMA data transmission. Distinct PN code pairs do
//     not contend with each other, so each link is an independent
//     store-and-forward server whose instantaneous rate is the link's
//     channel class throughput; per-hop ACKs confirm receipt and failed
//     transmissions reveal link breaks.
package mac

import (
	"math/rand"
	"time"

	"rica/internal/channel"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/sim"
)

// CommonBitrate is the common channel's bandwidth (paper §III.A), which
// routing packets are sent at.
const CommonBitrate = 250_000 // bits/s

// Backoff and retry tuning for the unslotted CSMA/CA. backoffSlot is on
// the order of one small control packet's airtime.
const (
	backoffSlot     = 2 * time.Millisecond
	maxSendAttempts = 7
)

// LinkOracle is the narrow view of the radio environment the MAC layer
// consumes — defined here, where it is used, so the channel core can
// evolve freely and MAC tests can substitute fakes. *channel.Model is the
// production implementation.
type LinkOracle interface {
	// N reports the number of terminals.
	N() int
	// Class reports the channel class between i and j at time at.
	Class(i, j int, at time.Duration) channel.Class
	// InRange reports whether i and j can currently hear each other.
	InRange(i, j int, at time.Duration) bool
	// Neighbors appends the ids of terminals within radio range of i to
	// dst in ascending order and returns the extended slice. It must
	// agree with InRange — j appears in Neighbors(i, at, ...) exactly
	// when InRange(i, j, at) holds and i ≠ j — because the channel's
	// collision bookkeeping answers a broadcast's receivers with one
	// neighbourhood scan per overlapping transmitter and a unicast's
	// single receiver with pairwise probes.
	Neighbors(i int, at time.Duration, dst []int) []int
	// Interferers appends to dst every terminal whose transmission could
	// reach a terminal that hears i — the CSMA collision-relevance
	// question. The list must hold i itself, everything in radio range of
	// i, and everything in range of any of those (twice the radio range
	// covers all three, by the triangle inequality); holding more is
	// allowed, just slower. Implementations must not consult outage state:
	// the exact InRange verdict stays with the collision check itself.
	Interferers(i int, at time.Duration, dst []int) []int
	// Warm is told, once per broadcast completion and before the first
	// delivery, the receivers js of i's broadcast, in delivery order:
	// each of them is about to be handed the packet, and a receiver may
	// ask Class(j, i, ·). It may read ahead what those first queries will
	// read, and must change nothing any query can observe; a no-op is a
	// valid implementation.
	Warm(i int, js []int)
}

// ReceiveFunc handles a control packet arriving at a terminal. Each
// receiver gets its own clone, so handlers may mutate the packet freely.
type ReceiveFunc func(pkt *packet.Packet, now time.Duration)

// transmission is one on-air control packet. jam marks an adversarial
// noise burst: it occupies the air (carrier sense and collisions see it)
// but is never delivered to any handler.
type transmission struct {
	from       int
	start, end time.Duration
	pkt        *packet.Packet
	jam        bool
}

// CommonChannel is the shared CSMA/CA signalling channel.
type CommonChannel struct {
	kernel   *sim.Kernel
	model    LinkOracle
	rng      *rand.Rand
	handlers []ReceiveFunc
	active   []*transmission
	nbuf     []int           // reusable neighbour scratch for broadcast delivery
	obuf     []*transmission // reusable overlap-set scratch for one completion
	vbuf     []int           // reusable victim scratch for collision marking

	// colStamp/colEpoch mark terminals for the current completion, first
	// as the sender's possible interferers (overlaps), then — under a new
	// epoch — as the terminals its overlapping transmissions reach
	// (markCollided): one list per question replaces a pairwise probe per
	// combination. An epoch bump invalidates the whole array in O(1).
	colStamp []uint64
	colEpoch uint64

	// txUntil[v] is the latest end of anything terminal v has put on air,
	// honest or jam, and airUntil the latest end field-wide: carrier sense
	// reads them instead of walking the active list. Both are functions of
	// active for every value that can still matter (an end in the future
	// is never pruned), so the checkpoint seam does not capture them.
	txUntil  []time.Duration
	airUntil time.Duration

	// Per-packet timers ride the kernel's closure-free fast path: the
	// event carries a slot index into these arenas instead of a captured
	// closure. txfree recycles transmission records once pruned.
	txSlots   []*transmission  // in-flight transmissions awaiting completion
	txSlotsFS []int            // free slot indices
	deferred  []*packet.Packet // packets waiting out a backoff, by slot
	defFS     []int
	txfree    []*transmission
	scratch   *packet.Packet // reusable delivery copy (see deliver)
	// completeFn and retryFn are the bound method values scheduled on the
	// fast path, built once in NewCommonChannel.
	completeFn sim.ArgHandler
	retryFn    sim.ArgHandler

	// maxAir is the longest airtime put on this channel so far. It bounds
	// how long a finished transmission stays relevant: a completion at time
	// t checks overlap against [start, end] with start ≥ t − maxAir, so
	// anything ending at or before t − maxAir can never collide again and
	// is safe to prune. Tracking the real maximum (instead of a fixed
	// horizon) keeps the active list at O(concurrent) during dense flood
	// storms and stays correct for packets of any size.
	maxAir time.Duration

	// OnTransmit, if set, observes every packet put on air (routing
	// overhead accounting: each attempt that actually transmits counts).
	OnTransmit func(pkt *packet.Packet, from int, now time.Duration)
	// OnDropped, if set, observes control packets abandoned after the
	// maximum number of busy-channel backoffs — the congestion-collapse
	// signal that cripples the link-state protocol at high mobility.
	OnDropped func(pkt *packet.Packet, from int, now time.Duration)

	// obs, when set, receives backoff and collision counters (nil-safe).
	obs *obs.Registry
}

// NewCommonChannel builds the channel for the terminals covered by model.
// rng drives backoff jitter and must be a dedicated stream.
func NewCommonChannel(kernel *sim.Kernel, model LinkOracle, rng *rand.Rand) *CommonChannel {
	c := &CommonChannel{
		kernel:   kernel,
		model:    model,
		rng:      rng,
		handlers: make([]ReceiveFunc, model.N()),
		colStamp: make([]uint64, model.N()),
		txUntil:  make([]time.Duration, model.N()),
	}
	c.completeFn = c.completeSlot
	c.retryFn = c.retrySlot
	return c
}

// SetObs wires the backoff/collision counters into r. The channel works
// identically — and counts nothing — without one.
func (c *CommonChannel) SetObs(r *obs.Registry) { c.obs = r }

// Drain silently releases every packet the channel still owns: backed-off
// packets whose retry lies past the horizon, in-flight transmissions whose
// completion never fired, and the delivery scratch record. No OnDropped or
// recorder callbacks run — the world layer calls this after the simulation
// horizon, where recording would perturb the run's metrics. It returns how
// many packets were let go.
func (c *CommonChannel) Drain() int {
	n := 0
	for i, pkt := range c.deferred {
		if pkt != nil {
			c.deferred[i] = nil
			pkt.Release()
			n++
		}
	}
	for _, tx := range c.txSlots {
		if tx != nil && tx.pkt != nil {
			pkt := tx.pkt
			tx.pkt = nil
			pkt.Release()
			n++
		}
	}
	if c.scratch != nil {
		c.scratch.Release()
		c.scratch = nil
		n++
	}
	return n
}

// Register installs the receive handler for terminal id. Every terminal
// must register exactly once before traffic starts.
func (c *CommonChannel) Register(id int, h ReceiveFunc) {
	if c.handlers[id] != nil {
		panic("mac: duplicate CommonChannel.Register")
	}
	c.handlers[id] = h
}

// Send queues pkt for transmission from terminal pkt.From. Broadcasts
// (pkt.To == packet.Broadcast) are delivered to every in-range terminal;
// unicasts only to pkt.To, though both occupy the air identically.
// Delivery is best-effort: collisions and repeated busy channel lose the
// packet silently, exactly the failure mode ad hoc routing must tolerate.
//
// Send takes ownership of pkt: it is Released once the transmission
// completes or is dropped, and every receiver is handed a short-lived
// copy it must Clone to keep.
func (c *CommonChannel) Send(pkt *packet.Packet) {
	c.attempt(pkt, 0)
}

func (c *CommonChannel) attempt(pkt *packet.Packet, tries int) {
	now := c.kernel.Now()
	if c.senseBusy(pkt.From, now) {
		if tries+1 >= maxSendAttempts {
			if c.OnDropped != nil {
				c.OnDropped(pkt, pkt.From, now)
			}
			pkt.Release()
			return
		}
		c.obs.Inc(obs.CMACBackoffs)
		slot := c.deferSlot(pkt)
		c.kernel.ScheduleArg(c.backoff(tries), c.retryFn, slot, tries+1)
		return
	}

	tx := c.onAir(pkt, now)
	if c.OnTransmit != nil {
		c.OnTransmit(pkt, pkt.From, now)
	}
	c.kernel.ScheduleArg(tx.end-now, c.completeFn, c.txSlot(tx), 0)
}

// airtime is how long a packet of size bytes occupies the common channel.
func airtime(size int) time.Duration {
	return time.Duration(float64(size*8) / CommonBitrate * float64(time.Second))
}

// onAir starts pkt's transmission at now: it records the airtime window
// in the active list and in the carrier-sense stamps, and returns the
// record for the caller to schedule its completion.
func (c *CommonChannel) onAir(pkt *packet.Packet, now time.Duration) *transmission {
	air := airtime(pkt.Size)
	if air > c.maxAir {
		c.maxAir = air
	}
	tx := c.allocTx()
	tx.from, tx.start, tx.end, tx.pkt = pkt.From, now, now+air, pkt
	c.active = append(c.active, tx)
	if tx.end > c.txUntil[tx.from] {
		c.txUntil[tx.from] = tx.end
	}
	if tx.end > c.airUntil {
		c.airUntil = tx.end
	}
	return tx
}

// Jam puts pkt on the air immediately — no carrier sense, no backoff, no
// retries — and never delivers it to anyone: the transmission exists
// purely as interference. While it is on air, honest senders within
// range hear a busy channel and defer, and any legitimate completion it
// overlaps is destroyed at receivers the jammer reaches — the standard
// always-on jammer stressing unslotted CSMA/CA. The burst deliberately
// skips OnTransmit (it is not routing overhead; the victims' metrics
// must stay attributable to the victims) and is counted in the registry
// instead. Jam takes ownership of pkt, releasing it when the burst
// leaves the air.
func (c *CommonChannel) Jam(pkt *packet.Packet) {
	now := c.kernel.Now()
	tx := c.onAir(pkt, now)
	tx.jam = true
	c.obs.Inc(obs.CJamTransmitted)
	c.kernel.ScheduleArg(tx.end-now, c.completeFn, c.txSlot(tx), 0)
}

// retrySlot resumes a backed-off attempt (the ScheduleArg fast path).
func (c *CommonChannel) retrySlot(_ time.Duration, slot, tries int) {
	pkt := c.deferred[slot]
	c.deferred[slot] = nil
	c.defFS = append(c.defFS, slot)
	c.attempt(pkt, tries)
}

// completeSlot finishes the transmission parked in slot.
func (c *CommonChannel) completeSlot(now time.Duration, slot, _ int) {
	tx := c.txSlots[slot]
	c.txSlots[slot] = nil
	c.txSlotsFS = append(c.txSlotsFS, slot)
	c.complete(tx, now)
}

// deferSlot parks pkt in the backoff arena and returns its slot index.
func (c *CommonChannel) deferSlot(pkt *packet.Packet) int {
	if n := len(c.defFS); n > 0 {
		slot := c.defFS[n-1]
		c.defFS = c.defFS[:n-1]
		c.deferred[slot] = pkt
		return slot
	}
	c.deferred = append(c.deferred, pkt)
	return len(c.deferred) - 1
}

// txSlot parks tx in the completion arena and returns its slot index.
func (c *CommonChannel) txSlot(tx *transmission) int {
	if n := len(c.txSlotsFS); n > 0 {
		slot := c.txSlotsFS[n-1]
		c.txSlotsFS = c.txSlotsFS[:n-1]
		c.txSlots[slot] = tx
		return slot
	}
	c.txSlots = append(c.txSlots, tx)
	return len(c.txSlots) - 1
}

// allocTx recycles a pruned transmission record or allocates a fresh one.
func (c *CommonChannel) allocTx() *transmission {
	if n := len(c.txfree); n > 0 {
		tx := c.txfree[n-1]
		c.txfree[n-1] = nil
		c.txfree = c.txfree[:n-1]
		return tx
	}
	return &transmission{}
}

// backoff draws an unslotted binary-exponential backoff delay.
func (c *CommonChannel) backoff(tries int) time.Duration {
	window := backoffSlot << uint(tries)
	return time.Duration(c.rng.Int63n(int64(window))) + time.Millisecond
}

// senseBusy reports whether terminal from hears an ongoing transmission:
// its own, or one by a terminal in radio range. Neighbors membership is
// InRange by the LinkOracle contract, so one neighbourhood walk over the
// per-terminal air stamps gives the verdict a pairwise probe of every
// live transmission would, at a cost independent of how many there are.
func (c *CommonChannel) senseBusy(from int, now time.Duration) bool {
	if c.airUntil <= now {
		return false // nothing on air anywhere
	}
	if c.txUntil[from] > now {
		return true // own radio transmitting
	}
	c.vbuf = c.model.Neighbors(from, now, c.vbuf[:0])
	for _, v := range c.vbuf {
		if c.txUntil[v] > now {
			return true
		}
	}
	return false
}

// complete finishes transmission tx: it delivers to every receiver in
// range of the sender that did not experience an overlapping transmission
// (collision), then prunes stale history. Broadcasts scan only the
// sender's neighbourhood (an O(density) grid query) instead of the whole
// terminal set; unicasts test the single target directly.
func (c *CommonChannel) complete(tx *transmission, now time.Duration) {
	if tx.jam {
		// A jam carries nothing deliverable; its whole effect — the busy
		// carrier honest senders deferred to, the collisions it inflicted
		// on overlapping completions — has already happened.
		tx.pkt.Release()
		tx.pkt = nil
		c.prune(now)
		return
	}
	if to := tx.pkt.To; to != packet.Broadcast {
		if to != tx.from && to >= 0 && to < len(c.handlers) && c.handlers[to] != nil &&
			c.model.InRange(tx.from, to, now) {
			c.overlaps(tx, now)
			if !c.collidedAt(to, now) {
				c.deliver(to, tx.pkt, now)
			} else {
				c.obs.Inc(obs.CMACCollisions)
			}
		}
	} else if c.nbuf = c.model.Neighbors(tx.from, now, c.nbuf[:0]); len(c.nbuf) > 0 {
		c.overlaps(tx, now)
		// Settle the survivor set before any handler runs: handlers may
		// send synchronously, and the sends' carrier sensing reuses the
		// scratch this fan-out fills.
		c.markCollided(now)
		w := 0
		for _, j := range c.nbuf {
			if c.handlers[j] == nil {
				continue
			}
			if c.colStamp[j] == c.colEpoch {
				c.obs.Inc(obs.CMACCollisions)
				continue
			}
			c.nbuf[w] = j
			w++
		}
		c.model.Warm(tx.from, c.nbuf[:w])
		for _, j := range c.nbuf[:w] {
			c.deliver(j, tx.pkt, now)
		}
	}
	// The on-air packet is dead: deliveries got their own copies and the
	// overlap bookkeeping only needs the transmission's time window.
	tx.pkt.Release()
	tx.pkt = nil
	c.prune(now)
}

// deliver hands receiver j its own mutable copy of pkt. The copy is
// reused as soon as the handler returns — a handler keeping the packet
// must Clone it — so the whole fan-out runs on a single channel-local
// scratch record, drawn once from the arena of the first packet aired,
// instead of cycling the arena per receiver.
func (c *CommonChannel) deliver(j int, pkt *packet.Packet, now time.Duration) {
	if c.scratch == nil {
		c.scratch = pkt.Clone()
	} else {
		c.scratch.CopyFrom(pkt)
	}
	c.handlers[j](c.scratch, now)
}

// overlaps fills c.obuf with the transmissions relevant to tx's receivers:
// the temporal-overlap set is the same for every receiver of one
// completion, so it is computed once, and transmitters beyond interference
// range of the sender are dropped — they cannot reach any terminal that
// hears tx.from, so no receiver's InRange check against them could
// succeed. The spatial question is asked once, not per pair: the first
// temporal overlap stamps the sender's interferer list, and every
// candidate after that is one array read. Called only when at least one
// delivery is actually possible.
func (c *CommonChannel) overlaps(tx *transmission, now time.Duration) {
	c.obuf = c.obuf[:0]
	stamped := false
	for _, other := range c.active {
		if other == tx || other.start >= tx.end || other.end <= tx.start {
			continue
		}
		if !stamped {
			stamped = true
			c.colEpoch++
			c.vbuf = c.model.Interferers(tx.from, now, c.vbuf[:0])
			for _, v := range c.vbuf {
				c.colStamp[v] = c.colEpoch
			}
		}
		if c.colStamp[other.from] == c.colEpoch {
			c.obuf = append(c.obuf, other)
		}
	}
}

// collidedAt reports whether receiver j heard a transmission overlapping
// the one being completed (the precomputed c.obuf) — the hidden-terminal
// destruction case. Unicast completions, with their single receiver, use
// it directly; broadcast fan-outs precompute the same verdict for every
// receiver at once via markCollided.
func (c *CommonChannel) collidedAt(j int, now time.Duration) bool {
	for _, other := range c.obuf {
		if other.from == j {
			return true // receiver was itself transmitting
		}
		if c.model.InRange(other.from, j, now) {
			return true
		}
	}
	return false
}

// markCollided stamps every terminal that hears (or is) one of the
// completion's overlapping transmitters: one Neighbors scan per
// transmitter instead of one pairwise range probe per (transmitter,
// receiver) combination. After the call, receiver j collided exactly
// when colStamp[j] carries the current epoch — the identical verdict
// collidedAt computes pairwise, since Neighbors membership is InRange.
func (c *CommonChannel) markCollided(now time.Duration) {
	c.colEpoch++
	for _, other := range c.obuf {
		c.colStamp[other.from] = c.colEpoch // a transmitter jams its own radio
		c.vbuf = c.model.Neighbors(other.from, now, c.vbuf[:0])
		for _, v := range c.vbuf {
			c.colStamp[v] = c.colEpoch
		}
	}
}

// prune drops transmissions that can no longer overlap any future
// completion. A transmission still on air at time now started at
// now − airtime ≥ now − maxAir, so anything that ended at or before
// now − maxAir is provably irrelevant (overlap is strict: touching
// boundaries do not collide).
func (c *CommonChannel) prune(now time.Duration) {
	keep := c.active[:0]
	for _, tx := range c.active {
		if tx.end+c.maxAir > now {
			keep = append(keep, tx)
		} else {
			*tx = transmission{}
			c.txfree = append(c.txfree, tx)
		}
	}
	// Clear the tail so recycled transmissions are not referenced twice.
	for i := len(keep); i < len(c.active); i++ {
		c.active[i] = nil
	}
	c.active = keep
}
