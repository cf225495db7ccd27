package network

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"rica/internal/channel"
	"rica/internal/mac"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/sim"
)

// NodeConfig sets the store-and-forward parameters. Defaults follow the
// paper: 10-packet buffers per adjacent-terminal connection, 3 s maximum
// buffer residency.
type NodeConfig struct {
	BufferCap      int
	BufferLifetime time.Duration

	// Obs, when set, is exposed to the attached routing agent through
	// Env.Obs so protocol internals (flood history, SPT rebuilds) can
	// count into the run's registry. All registry methods are nil-safe.
	Obs *obs.Registry

	// Packets is the world's packet arena, which NewPacket draws from.
	// world.New sets it; nil (unit tests, fakes) hands out plain
	// garbage-collected packets.
	Packets *packet.Arena

	// ForgetAudit, when set, turns on the exactness audit of the attached
	// agent's bounded flood history (routing.History.Audit): it receives
	// one count per lookup that missed a record the history had forgotten.
	// Only the invariant harness sets it; the audit's shadow key set grows
	// with the horizon, which is what the history itself no longer does.
	ForgetAudit *uint64
}

// DefaultNodeConfig returns the paper's settings.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{BufferCap: 10, BufferLifetime: 3 * time.Second}
}

// Node is one mobile terminal's network runtime. It owns the per-neighbour
// link queues, bridges the MAC layer to the routing Agent, and implements
// Env for that agent.
type Node struct {
	id     int
	n      int
	kernel *sim.Kernel
	common *mac.CommonChannel
	data   *mac.DataPlane
	model  LinkOracle
	rng    *rand.Rand
	rec    Recorder
	cfg    NodeConfig
	agent  Agent

	queues   []hopQueue // one per next hop ever used, ascending by next
	drainBuf []queued   // reusable scratch for linkFailed backlog re-presentation

	adv *adversary // nil on honest terminals
}

// adversary is a terminal's byzantine drop behaviour: transit data (never
// locally destined or locally originated packets) is silently discarded
// with probability prob during [from, until).
type adversary struct {
	prob        float64
	from, until time.Duration
}

var _ Env = (*Node)(nil)

// NewNode wires a terminal into both MAC planes. The agent is attached
// separately (SetAgent) because agents are constructed around the Env the
// node provides.
func NewNode(id int, kernel *sim.Kernel, common *mac.CommonChannel, data *mac.DataPlane,
	model LinkOracle, rng *rand.Rand, rec Recorder, cfg NodeConfig) *Node {
	if cfg.BufferCap <= 0 {
		panic("network: BufferCap must be positive")
	}
	nd := &Node{
		id:     id,
		n:      model.N(),
		kernel: kernel,
		common: common,
		data:   data,
		model:  model,
		rng:    rng,
		rec:    rec,
		cfg:    cfg,
	}
	common.Register(id, nd.onControl)
	data.Register(id, nd.onData)
	return nd
}

// SetAgent attaches the routing protocol instance. Must be called before
// Start.
func (nd *Node) SetAgent(a Agent) { nd.agent = a }

// Agent returns the attached routing agent (diagnostics, tests).
func (nd *Node) Agent() Agent { return nd.agent }

// SetAdversary turns the terminal into a selective transit dropper:
// during [from, until) every data packet it would forward for someone
// else is instead discarded with probability prob, recorded under
// DropAdversary. The terminal keeps routing honestly — queries are
// answered, routes advertised — which is exactly what makes the loss
// hard for the protocols to attribute. The drop draw uses the node's
// own RNG stream, so honest terminals consume no extra randomness and
// benign runs stay bit-identical.
func (nd *Node) SetAdversary(prob float64, from, until time.Duration) {
	nd.adv = &adversary{prob: prob, from: from, until: until}
}

// Obs implements Env: the run's registry (nil when none was configured).
func (nd *Node) Obs() *obs.Registry { return nd.cfg.Obs }

// ForgetAudit implements Env: the exactness audit's counter (nil outside
// the invariant harness).
func (nd *Node) ForgetAudit() *uint64 { return nd.cfg.ForgetAudit }

// Drain silently releases every data packet still buffered in the link
// queues and then what the agent parks (Agent.DrainPending). No
// recorder callbacks run — the world layer calls this after the
// simulation horizon, where recording drops would perturb the metrics.
// It returns how many packets were let go, split into end-to-end data
// packets (link-queue backlog plus the agent's parked data — the packets
// "in flight at the horizon" for conservation accounting) and
// control/relay packets.
func (nd *Node) Drain() (data, control int) {
	for _, hq := range nd.queues {
		q := hq.q
		for {
			e, ok := q.pop()
			if !ok {
				break
			}
			e.pkt.Release()
			data++
		}
		q.busy = false
	}
	dd, cc := nd.agent.DrainPending()
	return data + dd, control + cc
}

// DiscardStaleHead forgets the busy head packet queued toward next
// without releasing it. The data plane hands a packet to its receiver
// before the closing per-hop ACK airs; a run ending inside that window
// leaves this queue's head pointing at a packet the next terminal now
// owns, so the end-of-run drain must not count or release it here (the
// world consults mac.DataPlane.EachHandedOff and calls this first).
func (nd *Node) DiscardStaleHead(next int) {
	if q := nd.queue(next); q != nil && q.busy {
		q.pop()
		q.busy = false
	}
}

// hopQueue is one entry of a terminal's queue list: the link queue
// toward neighbour next. The list holds only next hops the terminal has
// forwarded to and stays sorted by next, so draining, the backlog sum
// and the checkpoint capture walk it in terminal-id order.
type hopQueue struct {
	next int
	q    *linkQueue
}

// queueIndex finds next's place in the queue list: the index holding
// it, or the one it would be inserted at.
func (nd *Node) queueIndex(next int) (int, bool) {
	return slices.BinarySearchFunc(nd.queues, next, func(hq hopQueue, next int) int {
		return cmp.Compare(hq.next, next)
	})
}

// queue returns the link queue toward next, or nil when this terminal
// never forwarded to it.
func (nd *Node) queue(next int) *linkQueue {
	if i, ok := nd.queueIndex(next); ok {
		return nd.queues[i].q
	}
	return nil
}

// Start boots the routing agent.
func (nd *Node) Start() {
	if nd.agent == nil {
		panic("network: Start before SetAgent")
	}
	nd.agent.Start(nd.kernel.Now())
}

// OriginateData injects a locally generated data packet (the traffic
// generator's entry point). The packet's Src must be this terminal.
//
// The node owns every data packet it carries: the packet is recycled at
// its terminal sink — delivery at the destination or a recorded drop —
// after the recorders have read it. Packets built as plain literals
// (tests) keep GC semantics, as Release is a no-op there.
func (nd *Node) OriginateData(pkt *packet.Packet, now time.Duration) {
	if pkt.Src != nd.id {
		panic("network: OriginateData with foreign Src")
	}
	nd.rec.DataGenerated(pkt, now)
	if pkt.Dst == nd.id {
		nd.rec.DataDelivered(pkt, now) // degenerate self-flow
		pkt.Release()
		return
	}
	nd.agent.RouteData(pkt, now)
}

// onControl delivers a common-channel packet to the agent.
func (nd *Node) onControl(pkt *packet.Packet, now time.Duration) {
	nd.agent.HandleControl(pkt, now)
}

// onData handles a data packet arriving over a data channel. A byzantine
// terminal intercepts here — after the agent has observed the arrival
// (CSI measurement, route refresh: the adversary keeps looking healthy)
// but before the packet is rerouted onward.
func (nd *Node) onData(pkt *packet.Packet, now time.Duration) {
	nd.agent.DataArrived(pkt, now)
	if pkt.Dst == nd.id {
		nd.rec.DataDelivered(pkt, now)
		pkt.Release()
		return
	}
	if a := nd.adv; a != nil && now >= a.from && now < a.until && nd.rng.Float64() < a.prob {
		nd.cfg.Obs.Inc(obs.CAdversaryDrops)
		nd.rec.DataDropped(pkt, DropAdversary, now)
		pkt.Release()
		return
	}
	nd.agent.RouteData(pkt, now)
}

// --- Env implementation -------------------------------------------------

// ID implements Env.
func (nd *Node) ID() int { return nd.id }

// NumNodes implements Env.
func (nd *Node) NumNodes() int { return nd.n }

// Now implements Env.
func (nd *Node) Now() time.Duration { return nd.kernel.Now() }

// Schedule implements Env.
func (nd *Node) Schedule(d time.Duration, fn func(now time.Duration)) sim.Timer {
	return nd.kernel.Schedule(d, fn)
}

// ScheduleArg implements Env.
func (nd *Node) ScheduleArg(d time.Duration, fn sim.ArgHandler, a0, a1 int) sim.Timer {
	return nd.kernel.ScheduleArg(d, fn, a0, a1)
}

// NewPacket implements Env.
func (nd *Node) NewPacket() *packet.Packet { return nd.cfg.Packets.Get() }

// SendControl implements Env.
func (nd *Node) SendControl(pkt *packet.Packet) {
	pkt.From = nd.id
	nd.common.Send(pkt)
}

// DropData implements Env. The drop is a terminal sink: after the
// recorders observe the packet it returns to the arena, so agents must
// not touch it after the call (capture any fields they still need
// first).
func (nd *Node) DropData(pkt *packet.Packet, reason DropReason) {
	nd.rec.DataDropped(pkt, reason, nd.kernel.Now())
	pkt.Release()
}

// LinkClass implements Env.
func (nd *Node) LinkClass(j int) channel.Class {
	return nd.model.Class(nd.id, j, nd.kernel.Now())
}

// Rand implements Env.
func (nd *Node) Rand() *rand.Rand { return nd.rng }

// NoteRouteInstalled implements Env: the attached agent's route table
// installed an entry, which the recorder receives.
func (nd *Node) NoteRouteInstalled() { nd.rec.RouteInstalled(nd.id, nd.kernel.Now()) }

// NoteRouteInvalidated implements Env: one of the agent's route entries
// became invalid.
func (nd *Node) NoteRouteInvalidated() { nd.rec.RouteInvalidated(nd.id, nd.kernel.Now()) }

// EnqueueData implements Env: store-and-forward toward neighbour next.
func (nd *Node) EnqueueData(pkt *packet.Packet, next int) {
	if next == nd.id {
		panic("network: enqueue toward self")
	}
	i, ok := nd.queueIndex(next)
	var q *linkQueue
	if ok {
		q = nd.queues[i].q
	} else {
		q = &linkQueue{}
		// One completion callback per queue, built once: every data send on
		// this link reuses it, so the steady-state forwarding path does not
		// allocate a closure per packet.
		q.done = func(res mac.SendResult) {
			head, _ := q.pop()
			q.busy = false
			if !res.OK {
				nd.linkFailed(next, q, head.pkt)
				return
			}
			if q.len() > 0 {
				nd.serve(next, q)
			}
		}
		nd.queues = slices.Insert(nd.queues, i, hopQueue{next, q})
	}
	if q.len() >= nd.cfg.BufferCap {
		nd.rec.DataDropped(pkt, DropCongestion, nd.kernel.Now())
		pkt.Release()
		return
	}
	q.push(queued{pkt: pkt, id: pkt.ID, at: nd.kernel.Now()})
	if !q.busy {
		nd.serve(next, q)
	}
}

// QueueLen reports the backlog toward neighbour next.
func (nd *Node) QueueLen(next int) int {
	if q := nd.queue(next); q != nil {
		return q.len()
	}
	return 0
}

// QueueBacklog implements Env: total packets buffered across all links.
func (nd *Node) QueueBacklog() int {
	total := 0
	for _, hq := range nd.queues {
		total += hq.q.len()
	}
	return total
}

// serve transmits the head of q toward next, then continues until the
// queue drains. Expired packets are discarded at dequeue time, matching
// the paper's "kept in the buffer for no more than three seconds" rule.
func (nd *Node) serve(next int, q *linkQueue) {
	now := nd.kernel.Now()
	for {
		head, ok := q.peek()
		if !ok {
			return
		}
		if now-head.at > nd.cfg.BufferLifetime {
			q.pop()
			nd.rec.DataDropped(head.pkt, DropExpired, now)
			head.pkt.Release()
			continue
		}
		break
	}
	head, _ := q.peek()
	q.busy = true
	pkt := head.pkt
	pkt.From = nd.id
	pkt.To = next
	nd.data.Send(nd.id, next, pkt, q.done)
}

// linkFailed hands the failed packet to the agent, then re-presents every
// packet still queued toward the dead neighbour so the (now updated)
// routing state can redirect or drop them.
func (nd *Node) linkFailed(next int, q *linkQueue, failed *packet.Packet) {
	now := nd.kernel.Now()
	// Drain before notifying the agent: LinkFailed may synchronously
	// enqueue onto this same queue (restarting its server), and the drain
	// must not steal that new in-flight packet. The node-level scratch is
	// safe to reuse: re-presentation never nests another synchronous
	// linkFailed (data-plane failures only arrive via scheduled events).
	backlog := q.drainInto(nd.drainBuf[:0])
	nd.agent.LinkFailed(next, failed, now)
	for _, entry := range backlog {
		if now-entry.at > nd.cfg.BufferLifetime {
			nd.rec.DataDropped(entry.pkt, DropExpired, now)
			entry.pkt.Release()
			continue
		}
		nd.agent.RouteData(entry.pkt, now)
	}
	for i := range backlog {
		backlog[i] = queued{} // release packet references
	}
	nd.drainBuf = backlog[:0]
}

// queued is one buffered data packet with its enqueue time. id is the
// packet's ID by value: a busy queue's head stays queued through the
// exchange's ACK window, after the receiver took the packet over (see
// DiscardStaleHead), and the checkpoint capture must not read through
// pkt then.
type queued struct {
	pkt *packet.Packet
	id  uint64
	at  time.Duration
}

// linkQueue is a FIFO ring over a slice; head compaction is amortized.
// done is the queue's reusable data-plane completion callback.
type linkQueue struct {
	items []queued
	head  int
	busy  bool
	done  func(mac.SendResult)
}

func (q *linkQueue) len() int { return len(q.items) - q.head }

func (q *linkQueue) push(e queued) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Reclaim the popped prefix instead of growing: the buffer cap
		// bounds the live window, so after warmup pushes never allocate.
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = queued{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, e)
}

func (q *linkQueue) peek() (queued, bool) {
	if q.len() == 0 {
		return queued{}, false
	}
	return q.items[q.head], true
}

func (q *linkQueue) pop() (queued, bool) {
	if q.len() == 0 {
		return queued{}, false
	}
	e := q.items[q.head]
	q.items[q.head] = queued{} // release the packet reference
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return e, true
}

// drainInto removes all queued entries, appending them to dst (reused
// across calls to avoid a per-failure allocation).
func (q *linkQueue) drainInto(dst []queued) []queued {
	for {
		e, ok := q.pop()
		if !ok {
			return dst
		}
		dst = append(dst, e)
	}
}
