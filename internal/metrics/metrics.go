// Package metrics aggregates one run's end-of-run measurements — the
// numbers the paper's evaluation reports: average end-to-end delay,
// successful delivery percentage, routing overhead in bits per second
// (routing packets on the common channel plus data acknowledgments),
// route quality (average link throughput and hop count of delivered
// packets), and the 4-second-bucket aggregate throughput time series of
// Figure 6.
//
// These are whole-run aggregates by design; per-interval observability
// (how delivery dips and recovers around a failure, when the control
// channel saturates) lives in the timeseries package, which attaches
// alongside this collector without perturbing it.
package metrics

import (
	"sort"
	"time"

	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
)

// BucketSize is the paper's throughput sampling interval (Figure 6:
// "the amount of data reaching destination terminals in every 4 seconds").
const BucketSize = 4 * time.Second

// Collector accumulates one simulation run's measurements. The world's
// observation seam (the nodes' network.Recorder, and the MAC layer's
// transmit observers) hands it every event it counts.
// The zero value is not usable; construct with NewCollector.
type Collector struct {
	horizon time.Duration

	generated int
	delivered int
	dropped   map[network.DropReason]int

	delaySum      time.Duration
	traversedHops int
	traversedBps  float64
	traversedCSI  float64
	droppedHops   int
	droppedCSI    float64
	maxHops       int
	deliveredBits int64

	controlBits int64
	ackBits     int64
	controlPkts int64
	controlDrop int64
	// controlByType is indexed by packet.Type (a small dense enum): a map
	// here costs a hashed assign per transmitted control packet.
	controlByType [16]int64

	delays []time.Duration // per-delivery samples for percentiles

	flows map[flowKey]*flowStats

	buckets []int64 // delivered bits per BucketSize interval
}

// flowKey identifies a unidirectional flow for the per-flow breakdown.
type flowKey struct{ src, dst int }

type flowStats struct {
	generated, delivered int
	delaySum             time.Duration
}

// NewCollector builds a collector for a run lasting horizon.
func NewCollector(horizon time.Duration) *Collector {
	nBuckets := int(horizon/BucketSize) + 1
	return &Collector{
		horizon: horizon,
		dropped: make(map[network.DropReason]int),
		buckets: make([]int64, nBuckets),
		flows:   make(map[flowKey]*flowStats),
	}
}

// DataGenerated counts a data packet created at its source.
func (c *Collector) DataGenerated(pkt *packet.Packet, _ time.Duration) {
	c.generated++
	c.flow(pkt).generated++
}

// flow fetches (or creates) the per-flow accumulator for pkt.
func (c *Collector) flow(pkt *packet.Packet) *flowStats {
	k := flowKey{src: pkt.Src, dst: pkt.Dst}
	f := c.flows[k]
	if f == nil {
		f = &flowStats{}
		c.flows[k] = f
	}
	return f
}

// DataDelivered counts a data packet reaching its destination.
func (c *Collector) DataDelivered(pkt *packet.Packet, now time.Duration) {
	c.delivered++
	delay := now - pkt.CreatedAt
	c.delaySum += delay
	c.delays = append(c.delays, delay)
	f := c.flow(pkt)
	f.delivered++
	f.delaySum += delay
	c.traversedHops += pkt.TraversedHops
	c.traversedBps += pkt.TraversedBps
	c.traversedCSI += pkt.TraversedCSI
	if pkt.TraversedHops > c.maxHops {
		c.maxHops = pkt.TraversedHops
	}
	bits := int64(pkt.Size * 8)
	c.deliveredBits += bits
	if b := int(now / BucketSize); b >= 0 && b < len(c.buckets) {
		c.buckets[b] += bits
	}
}

// DataDropped counts a data packet discarded for reason.
func (c *Collector) DataDropped(pkt *packet.Packet, reason network.DropReason, _ time.Duration) {
	c.dropped[reason]++
	c.droppedHops += pkt.TraversedHops
	c.droppedCSI += pkt.TraversedCSI
	if pkt.TraversedHops > c.maxHops {
		c.maxHops = pkt.TraversedHops
	}
}

// ControlTransmitted observes a routing packet put on the common channel
// (wire to mac.CommonChannel.OnTransmit).
func (c *Collector) ControlTransmitted(pkt *packet.Packet, _ int, _ time.Duration) {
	c.controlBits += int64(pkt.Size * 8)
	c.controlPkts++
	if t := int(pkt.Type); t >= 0 && t < len(c.controlByType) {
		c.controlByType[t]++
	}
}

// ControlDropped observes a routing packet abandoned to congestion (wire
// to mac.CommonChannel.OnDropped).
func (c *Collector) ControlDropped(*packet.Packet, int, time.Duration) { c.controlDrop++ }

// AckTransmitted observes a data-channel acknowledgment (wire to
// mac.DataPlane.OnAck); the paper counts ACK bits as routing overhead.
func (c *Collector) AckTransmitted(sizeBytes int, _ time.Duration) {
	c.ackBits += int64(sizeBytes * 8)
}

// Summary is one run's aggregated result set.
type Summary struct {
	// Generated and Delivered are end-to-end data packet counts.
	Generated, Delivered int
	// Dropped counts losses by reason.
	Dropped map[network.DropReason]int
	// AvgDelay is the mean end-to-end delay of delivered packets.
	AvgDelay time.Duration
	// DeliveryRatio is Delivered/Generated in [0, 1].
	DeliveryRatio float64
	// OverheadBps is (routing bits + ACK bits) / simulated seconds.
	OverheadBps float64
	// ControlPackets counts common-channel routing transmissions;
	// ControlDropped counts those lost to backoff exhaustion.
	ControlPackets, ControlDropped int64
	// ControlByType breaks ControlPackets down per packet type.
	ControlByType map[packet.Type]int64
	// AvgLinkThroughputBps is Σ per-hop class throughput / Σ hops over
	// delivered packets (Figure 5a).
	AvgLinkThroughputBps float64
	// AvgHops is the mean geographic hop count of delivered packets,
	// loops included.
	AvgHops float64
	// AvgCSIHops is the mean CSI-based hop distance of delivered packets —
	// the paper's "hop" unit, where a class-A link counts 1 and a class-D
	// link counts 5 (Figure 5b).
	AvgCSIHops float64
	// AvgHopsAll is the mean geographic hops traversed per *terminated*
	// packet (delivered or dropped). Routing loops show up here even when
	// the looping packets never reach a destination — the link-state
	// pathology of Figure 5(b).
	AvgHopsAll float64
	// AvgCSIHopsAll is AvgHopsAll in the paper's CSI hop unit.
	AvgCSIHopsAll float64
	// MaxHops is the largest geographic hop count any terminated packet
	// traversed — a routing-loop telltale.
	MaxHops int
	// Delay holds the delivered-delay distribution (median, tail, max).
	Delay DelayPercentiles
	// PerFlow breaks delivery down per (source, destination) pair.
	PerFlow []FlowSummary
	// Energy aggregates transmit-energy accounting when a meter is
	// attached (see the energy package); zero otherwise.
	Energy EnergyStats
	// GoodputBps is delivered data bits / simulated seconds.
	GoodputBps float64
	// Events is the number of kernel events the run dispatched — the
	// denominator-free half of the simulator's events-per-second
	// throughput figure (deterministic: equal runs report equal counts).
	// Populated by the world layer, not the collector.
	Events uint64
	// PacketsLeaked is how many of the world's arena packets were still
	// checked out after the end-of-run drain. Zero in a correct run
	// (invariant.CheckSummary's zero-leak law); no export serialises it
	// and the fingerprint does not list it. Populated by the world layer.
	PacketsLeaked int
	// ThroughputSeries is delivered bits per 4 s bucket converted to bits
	// per second (Figure 6's curve).
	ThroughputSeries []float64
	// Obs is the run's end-of-run observability snapshot (subsystem
	// counters, delay histogram quantiles). Populated by the world layer;
	// nil for bare collector use. Excluded from golden fingerprints, which
	// format an explicit field list.
	Obs *obs.Snapshot
}

// Summary freezes the current counters into a result set.
func (c *Collector) Summary() Summary {
	s := Summary{
		Generated:      c.generated,
		Delivered:      c.delivered,
		Dropped:        make(map[network.DropReason]int, len(c.dropped)),
		ControlPackets: c.controlPkts,
		ControlDropped: c.controlDrop,
	}
	for k, v := range c.dropped {
		s.Dropped[k] = v
	}
	s.ControlByType = make(map[packet.Type]int64)
	for t, v := range c.controlByType {
		if v != 0 {
			s.ControlByType[packet.Type(t)] = v
		}
	}
	if c.delivered > 0 {
		s.AvgDelay = c.delaySum / time.Duration(c.delivered)
		s.AvgHops = float64(c.traversedHops) / float64(c.delivered)
		s.AvgCSIHops = c.traversedCSI / float64(c.delivered)
	}
	if c.generated > 0 {
		s.DeliveryRatio = float64(c.delivered) / float64(c.generated)
	}
	if c.traversedHops > 0 {
		s.AvgLinkThroughputBps = c.traversedBps / float64(c.traversedHops)
	}
	s.MaxHops = c.maxHops
	s.Delay = percentiles(c.delays)
	s.PerFlow = c.flowSummaries()
	if terminated := c.delivered + s.DropTotal(); terminated > 0 {
		s.AvgHopsAll = float64(c.traversedHops+c.droppedHops) / float64(terminated)
		s.AvgCSIHopsAll = (c.traversedCSI + c.droppedCSI) / float64(terminated)
	}
	if secs := c.horizon.Seconds(); secs > 0 {
		s.OverheadBps = float64(c.controlBits+c.ackBits) / secs
		s.GoodputBps = float64(c.deliveredBits) / secs
	}
	s.ThroughputSeries = make([]float64, len(c.buckets))
	for i, bits := range c.buckets {
		s.ThroughputSeries[i] = float64(bits) / BucketSize.Seconds()
	}
	return s
}

// DropTotal sums all drop reasons.
func (s Summary) DropTotal() int {
	total := 0
	for _, v := range s.Dropped {
		total += v
	}
	return total
}

// FlowSummary is one flow's delivery record.
type FlowSummary struct {
	Src, Dst             int
	Generated, Delivered int
	AvgDelay             time.Duration
}

// DeliveryRatio reports the flow's delivered fraction.
func (f FlowSummary) DeliveryRatio() float64 {
	if f.Generated == 0 {
		return 0
	}
	return float64(f.Delivered) / float64(f.Generated)
}

// flowSummaries freezes the per-flow accumulators, sorted by (src, dst)
// for deterministic output.
func (c *Collector) flowSummaries() []FlowSummary {
	out := make([]FlowSummary, 0, len(c.flows))
	for k, f := range c.flows {
		fs := FlowSummary{Src: k.src, Dst: k.dst, Generated: f.generated, Delivered: f.delivered}
		if f.delivered > 0 {
			fs.AvgDelay = f.delaySum / time.Duration(f.delivered)
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// EnergyStats aggregates transmit-energy accounting in joules. Populated
// by the energy meter when one is attached to the run.
type EnergyStats struct {
	// ControlJ is energy spent transmitting routing packets.
	ControlJ float64
	// DataJ is energy spent transmitting data and per-hop ACKs; slower
	// channel classes burn proportionally more airtime per bit.
	DataJ float64
	// PerDeliveredBitJ is (ControlJ+DataJ) / delivered data bits — the
	// figure of merit for battery-constrained terminals.
	PerDeliveredBitJ float64
}

// TotalJ sums all transmit energy.
func (e EnergyStats) TotalJ() float64 { return e.ControlJ + e.DataJ }
