// Package traffic generates the paper's workload: a fixed set of
// source/destination terminal pairs, each producing 512-byte data packets
// as a Poisson process (exponential inter-arrival times) at 10 or 20
// packets per second.
package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/sim"
)

// Pattern selects a flow's packet arrival process.
type Pattern int

// The supported arrival processes.
const (
	// Poisson draws exponential inter-arrival times at Rate (the paper's
	// workload and the zero value).
	Poisson Pattern = iota
	// CBR emits packets at a constant 1/Rate interval.
	CBR
	// OnOff is a bursty source: Poisson arrivals at Rate during fixed On
	// windows, silence during the Off windows between them. The on/off
	// cycle is phase-locked to t = 0 so all bursty flows surge together —
	// the worst case for buffer contention.
	OnOff
)

// String names the pattern for tables and JSON.
func (p Pattern) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case CBR:
		return "cbr"
	case OnOff:
		return "onoff"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Flow is one unidirectional stream of data packets.
type Flow struct {
	Src, Dst int
	// Rate is the mean packet generation rate in packets per second
	// (during On windows for OnOff flows).
	Rate float64
	// Pattern is the arrival process; the zero value is Poisson.
	Pattern Pattern
	// On and Off set the OnOff burst cycle; ignored by other patterns.
	On, Off time.Duration
}

// ChoosePairs draws count flows with all endpoints distinct, uniformly at
// random from n terminals, each at the given rate. It panics when n is too
// small for the requested number of disjoint pairs.
func ChoosePairs(n, count int, rate float64, rng *rand.Rand) []Flow {
	if 2*count > n {
		panic("traffic: not enough terminals for disjoint pairs")
	}
	perm := rng.Perm(n)
	flows := make([]Flow, count)
	for i := range flows {
		flows[i] = Flow{Src: perm[2*i], Dst: perm[2*i+1], Rate: rate}
	}
	return flows
}

// streamKindFlow namespaces per-flow arrival streams.
const streamKindFlow = 0x_F10A

// Generator drives a set of flows against the network layer.
type Generator struct {
	kernel *sim.Kernel
	nodes  []*network.Node
	nextID uint64

	// Obs, when set, counts generated packets into the run's registry.
	Obs *obs.Registry
}

// NewGenerator builds a generator injecting into nodes.
func NewGenerator(kernel *sim.Kernel, nodes []*network.Node) *Generator {
	return &Generator{kernel: kernel, nodes: nodes}
}

// Start schedules Poisson arrivals for every flow from time zero until
// stop. Each flow draws from its own deterministic stream.
func (g *Generator) Start(flows []Flow, streams *sim.Streams, stop time.Duration) {
	for i, f := range flows {
		if f.Rate <= 0 {
			continue
		}
		// One runner (and one bound handler) per flow, built once: the
		// per-packet rescheduling then reuses it, so a million arrivals
		// cost the allocator nothing beyond the packets themselves.
		r := &flowRunner{g: g, f: f, rng: streams.StreamAt(streamKindFlow, uint64(i)), stop: stop}
		r.fire = r.tick
		r.schedule()
	}
}

// flowRunner drives one flow's arrival process.
type flowRunner struct {
	g    *Generator
	f    Flow
	rng  *rand.Rand
	stop time.Duration
	fire sim.Handler // bound tick, built once
}

// schedule arms the flow's next arrival.
func (r *flowRunner) schedule() {
	r.g.kernel.Schedule(r.f.nextGap(r.g.kernel.Now(), r.rng), r.fire)
}

// tick emits one data packet and re-arms.
func (r *flowRunner) tick(now time.Duration) {
	if now >= r.stop {
		return
	}
	r.g.nextID++
	// Pooled: the network layer releases the packet when it is delivered
	// or dropped, so the steady-state workload recycles a handful of
	// records instead of allocating one per arrival.
	pkt := r.g.nodes[r.f.Src].NewPacket()
	pkt.Type = packet.TypeData
	pkt.ID = r.g.nextID
	pkt.Src = r.f.Src
	pkt.Dst = r.f.Dst
	pkt.Size = packet.SizeData
	pkt.CreatedAt = now
	r.g.Obs.Inc(obs.CTrafficGenerated)
	r.g.nodes[r.f.Src].OriginateData(pkt, now)
	r.schedule()
}

// nextGap draws the delay from now until the flow's next arrival.
func (f Flow) nextGap(now time.Duration, rng *rand.Rand) time.Duration {
	switch f.Pattern {
	case CBR:
		return time.Duration(float64(time.Second) / f.Rate)
	case OnOff:
		if f.On <= 0 || f.Off <= 0 {
			break // degenerate cycle: behave as plain Poisson
		}
		gap := time.Duration(rng.ExpFloat64() / f.Rate * float64(time.Second))
		if gap <= 0 {
			// A draw that truncates to zero must still land strictly inside
			// an on window: from mid-off, a zero active-time gap would map
			// to the end of the *previous* window, i.e. the past.
			gap = 1
		}
		target := activeTime(now, f.On, f.Off) + gap
		return wallTime(target, f.On, f.Off) - now
	}
	return time.Duration(rng.ExpFloat64() / f.Rate * float64(time.Second))
}

// activeTime maps wall-clock time t onto the flow's cumulative on-air
// time under the phase-locked on/off cycle.
func activeTime(t, on, off time.Duration) time.Duration {
	cycle := on + off
	full := t / cycle
	rem := t % cycle
	if rem > on {
		rem = on
	}
	return time.Duration(int64(full)*int64(on)) + rem
}

// wallTime inverts activeTime: the wall-clock instant at which cumulative
// on-air time a is reached.
func wallTime(a, on, off time.Duration) time.Duration {
	cycle := on + off
	full := a / on
	rem := a % on
	if rem == 0 && full > 0 {
		// A landing exactly on a window boundary belongs to the end of the
		// previous on window, not the start of the next.
		full--
		rem = on
	}
	return time.Duration(int64(full)*int64(cycle)) + rem
}

// NextID reports the last data packet id issued (ids are issued
// sequentially from 1). Checkpoint verification compares it across
// processes to prove the workloads are in lockstep.
func (g *Generator) NextID() uint64 { return g.nextID }
