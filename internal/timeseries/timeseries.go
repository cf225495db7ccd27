// Package timeseries turns one simulation run into an interval-bucketed
// telemetry timeline. Where the metrics package answers "what was the
// mean over the whole run", this package answers "what happened between
// second 40 and second 41": per-interval delivery ratio, end-to-end delay
// percentiles, control overhead, drops broken down by reason, goodput,
// and route-table churn. That is the view that makes transients — route
// convergence after a discovery flood, the delivery dip and recovery
// around a node failure, a control-channel saturation episode — visible
// at all.
//
// A Collector implements network.Recorder (and the optional
// network.RouteRecorder extension) plus the control-plane hooks, so the
// world's observation seam hands it every event the metrics collector
// sees. Collectors are strictly per-run: they hold no global state, so
// parallel batch cells each collect independently and the batch engine
// emits the finished timelines in deterministic grid order.
//
// Finished timelines flow into a Sink — JSONL (one object per interval),
// CSV (one row per interval), or in-memory for programmatic access.
package timeseries

import (
	"time"

	"rica/internal/metrics"
	"rica/internal/network"
	"rica/internal/packet"
)

// DefaultInterval is the bucket width used when a configuration leaves
// the interval zero: one second, fine enough to see failure/heal
// transients, coarse enough to keep timelines small.
const DefaultInterval = time.Second

// Collector accumulates one run's events into fixed-width interval
// buckets. The zero value is not usable; construct with NewCollector.
// It implements network.Recorder and network.RouteRecorder and exposes
// the same control-plane hooks as metrics.Collector, so the world wires
// it alongside (never instead of) the aggregate metrics.
type Collector struct {
	interval time.Duration
	buckets  []bucket
}

// bucket accumulates the raw counters of one interval.
type bucket struct {
	generated     int
	delivered     int
	delaySum      time.Duration
	delays        []time.Duration
	deliveredBits int64

	drops [network.NumDropReasons]int // indexed by network.DropReason - 1

	controlPkts int64
	controlBits int64
	controlDrop int64
	ackBits     int64

	routeInstalls      int
	routeInvalidations int
}

var (
	_ network.Recorder      = (*Collector)(nil)
	_ network.RouteRecorder = (*Collector)(nil)
)

// NewCollector builds a collector bucketing a run of the given horizon
// into interval-wide buckets. A non-positive interval falls back to
// DefaultInterval; the horizon pre-sizes the timeline so every run over
// the same horizon yields the same number of points, events or not.
func NewCollector(interval, horizon time.Duration) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	n := 0
	if horizon > 0 {
		// ceil(horizon/interval): the partial last interval gets a bucket.
		n = int((horizon + interval - 1) / interval)
	}
	return &Collector{interval: interval, buckets: make([]bucket, n)}
}

// Interval reports the bucket width.
func (c *Collector) Interval() time.Duration { return c.interval }

// at returns the bucket covering virtual time now, growing the timeline
// if an event lands past the pre-sized horizon (e.g. a delivery completing
// exactly at the horizon boundary).
func (c *Collector) at(now time.Duration) *bucket {
	idx := int(now / c.interval)
	if idx < 0 {
		idx = 0
	}
	for idx >= len(c.buckets) {
		c.buckets = append(c.buckets, bucket{})
	}
	return &c.buckets[idx]
}

// DataGenerated implements network.Recorder.
func (c *Collector) DataGenerated(_ *packet.Packet, now time.Duration) {
	c.at(now).generated++
}

// DataDelivered implements network.Recorder.
func (c *Collector) DataDelivered(pkt *packet.Packet, now time.Duration) {
	b := c.at(now)
	b.delivered++
	delay := now - pkt.CreatedAt
	b.delaySum += delay
	b.delays = append(b.delays, delay)
	b.deliveredBits += int64(pkt.Size * 8)
}

// DataDropped implements network.Recorder. A reason outside the enum is a
// bug in the caller and panics rather than vanishing from the books
// CheckTimeline balances.
func (c *Collector) DataDropped(_ *packet.Packet, reason network.DropReason, now time.Duration) {
	if reason < 1 || int(reason) > network.NumDropReasons {
		panic("timeseries: unknown drop reason " + reason.String())
	}
	c.at(now).drops[reason-1]++
}

// ControlTransmitted observes a routing packet put on the common channel
// (mac.CommonChannel.OnTransmit).
func (c *Collector) ControlTransmitted(pkt *packet.Packet, _ int, now time.Duration) {
	b := c.at(now)
	b.controlPkts++
	b.controlBits += int64(pkt.Size * 8)
}

// ControlDropped observes a routing packet abandoned to congestion
// (mac.CommonChannel.OnDropped).
func (c *Collector) ControlDropped(_ *packet.Packet, _ int, now time.Duration) {
	c.at(now).controlDrop++
}

// AckTransmitted observes a data-channel acknowledgment
// (mac.DataPlane.OnAck); ACK bits count toward control overhead, matching
// the aggregate metrics.
func (c *Collector) AckTransmitted(sizeBytes int, now time.Duration) {
	c.at(now).ackBits += int64(sizeBytes * 8)
}

// RouteInstalled implements network.RouteRecorder: one route-table entry
// was installed or replaced somewhere in the network.
func (c *Collector) RouteInstalled(_ int, now time.Duration) {
	c.at(now).routeInstalls++
}

// RouteInvalidated implements network.RouteRecorder: one route-table
// entry transitioned from valid to invalid (explicit invalidation, a
// link-break fan-out, or idle expiry).
func (c *Collector) RouteInvalidated(_ int, now time.Duration) {
	c.at(now).routeInvalidations++
}

// Point is one interval's derived measurements. All fields are fixed
// (no maps), so equal runs serialize to identical bytes regardless of
// batch parallelism.
type Point struct {
	// Index is the interval's ordinal; StartS its start in simulated
	// seconds (Index × interval).
	Index  int     `json:"i"`
	StartS float64 `json:"t_s"`
	// Generated and Delivered count data packets entering and reaching
	// their destinations during this interval.
	Generated int `json:"generated"`
	Delivered int `json:"delivered"`
	// DeliveryRatio is Delivered/Generated for the interval — zero when
	// nothing was generated, and possibly above 1 when packets generated
	// earlier are delivered here.
	DeliveryRatio float64 `json:"delivery_ratio"`
	// AvgDelayMs, P50DelayMs and P95DelayMs summarize the end-to-end
	// delays of the interval's deliveries.
	AvgDelayMs float64 `json:"avg_delay_ms"`
	P50DelayMs float64 `json:"p50_delay_ms"`
	P95DelayMs float64 `json:"p95_delay_ms"`
	// GoodputKbps is delivered data bits over the interval.
	GoodputKbps float64 `json:"goodput_kbps"`
	// ControlPackets and ControlDropped count common-channel routing
	// transmissions and congestion losses; OverheadKbps is routing bits
	// plus ACK bits over the interval.
	ControlPackets int64   `json:"control_packets"`
	ControlDropped int64   `json:"control_dropped"`
	OverheadKbps   float64 `json:"overhead_kbps"`
	// The drop counters attribute the interval's data losses by cause.
	DropCongestion int `json:"drop_congestion"`
	DropExpired    int `json:"drop_expired"`
	DropNoRoute    int `json:"drop_no_route"`
	DropLinkBreak  int `json:"drop_link_break"`
	DropAdversary  int `json:"drop_adversary"`
	// RouteInstalls and RouteInvalidations measure route-table churn:
	// entries written and entries killed across all terminals. For the
	// link-state baseline, installs count shortest-path-tree recomputes.
	RouteInstalls      int `json:"route_installs"`
	RouteInvalidations int `json:"route_invalidations"`
}

// Timeline is one run's finished interval series.
type Timeline struct {
	// IntervalS is the bucket width in seconds.
	IntervalS float64 `json:"interval_s"`
	// Points holds one entry per interval, covering the whole horizon in
	// order; intervals without events are present with zero counters.
	Points []Point `json:"points"`
}

// Timeline freezes the collected buckets into a timeline. The collector
// stays usable (freezing is a pure read), so a caller may snapshot
// mid-run, but the canonical use is once, after the run completes.
func (c *Collector) Timeline() Timeline {
	secs := c.interval.Seconds()
	tl := Timeline{IntervalS: secs, Points: make([]Point, len(c.buckets))}
	for i := range c.buckets {
		b := &c.buckets[i]
		p := Point{
			Index:          i,
			StartS:         float64(i) * secs,
			Generated:      b.generated,
			Delivered:      b.delivered,
			GoodputKbps:    float64(b.deliveredBits) / secs / 1000,
			ControlPackets: b.controlPkts,
			ControlDropped: b.controlDrop,
			OverheadKbps:   float64(b.controlBits+b.ackBits) / secs / 1000,
			DropCongestion: b.drops[network.DropCongestion-1],
			DropExpired:    b.drops[network.DropExpired-1],
			DropNoRoute:    b.drops[network.DropNoRoute-1],
			DropLinkBreak:  b.drops[network.DropLinkBreak-1],
			DropAdversary:  b.drops[network.DropAdversary-1],

			RouteInstalls:      b.routeInstalls,
			RouteInvalidations: b.routeInvalidations,
		}
		if b.generated > 0 {
			p.DeliveryRatio = float64(b.delivered) / float64(b.generated)
		}
		if b.delivered > 0 {
			p.AvgDelayMs = float64(b.delaySum) / float64(b.delivered) / float64(time.Millisecond)
			p.P50DelayMs = float64(metrics.Quantile(b.delays, 0.50)) / float64(time.Millisecond)
			p.P95DelayMs = float64(metrics.Quantile(b.delays, 0.95)) / float64(time.Millisecond)
		}
		tl.Points[i] = p
	}
	return tl
}
