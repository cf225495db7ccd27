package experiment

import (
	"fmt"
	"strings"
	"time"

	"rica/internal/obs"
	"rica/internal/protocol"
)

// Options sets the sweep grid; zero values fall back to paper-scale
// defaults (500 s, 25 trials, 0–72 km/h in 12 km/h steps, all protocols).
// CI-scale callers shrink Trials and Duration.
type Options struct {
	Speeds    []float64
	Protocols []protocol.Protocol
	Trials    int
	Duration  time.Duration
	BaseSeed  int64
	// Parallelism caps concurrent trials across the grid; 0 means
	// GOMAXPROCS.
	Parallelism int
	// Hub, when non-nil, sees every in-flight cell's live counters (see
	// batch.Config.Hub); it never changes a figure.
	Hub *obs.Hub
}

func (o Options) withDefaults() Options {
	if o.Speeds == nil {
		o.Speeds = []float64{0, 12, 24, 36, 48, 60, 72}
	}
	if o.Protocols == nil {
		o.Protocols = protocol.AllProtocols()
	}
	if o.Trials <= 0 {
		o.Trials = 25
	}
	if o.Duration <= 0 {
		o.Duration = 500 * time.Second
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	return o
}

// SweepResult is the full mobility sweep at one load. Figures 2, 3 and 4
// are three projections of the same sweep (delay, delivery, overhead).
type SweepResult struct {
	Load   float64
	Speeds []float64
	Cells  map[protocol.Protocol][]Result
	Order  []protocol.Protocol
}

// Sweep runs every (protocol, speed) cell at the given per-flow load.
func Sweep(load float64, o Options) SweepResult {
	o = o.withDefaults()
	return SweepResult{
		Load:   load,
		Speeds: o.Speeds,
		Cells:  o.grid(load, o.Speeds),
		Order:  o.Protocols,
	}
}

// point runs the one-speed grid behind Figures 5 and 6.
func (o Options) point(load, speedKmh float64) map[protocol.Protocol]Result {
	cells := make(map[protocol.Protocol]Result, len(o.Protocols))
	for p, rows := range o.grid(load, []float64{speedKmh}) {
		cells[p] = rows[0]
	}
	return cells
}

// Metric selects the projection of a sweep a figure plots.
type Metric int

// The sweep projections.
const (
	MetricDelay    Metric = iota + 1 // Figure 2: mean end-to-end delay (ms)
	MetricDelivery                   // Figure 3: successful delivery (%)
	MetricOverhead                   // Figure 4: routing overhead (kbps)
)

func (m Metric) String() string {
	switch m {
	case MetricDelay:
		return "Average End-to-End Delay (ms)"
	case MetricDelivery:
		return "Successful Packet Delivery (%)"
	case MetricOverhead:
		return "Routing Overhead (kbps)"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func (m Metric) value(a Averages) float64 {
	switch m {
	case MetricDelay:
		return a.DelayMs
	case MetricDelivery:
		return a.DeliveryPercent
	case MetricOverhead:
		return a.OverheadKbps
	default:
		return 0
	}
}

// Table renders one metric of the sweep as the figure's data table:
// one row per protocol, one column per mean speed.
func (s SweepResult) Table(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %.0f packets/s per flow\n", m, s.Load)
	fmt.Fprintf(&b, "%-10s", "km/h:")
	for _, sp := range s.Speeds {
		fmt.Fprintf(&b, "%9.0f", sp)
	}
	b.WriteByte('\n')
	for _, p := range s.Order {
		fmt.Fprintf(&b, "%-10s", p.String())
		for i := range s.Speeds {
			fmt.Fprintf(&b, "%9.1f", m.value(s.Cells[p][i].Mean))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// QualityResult is Figure 5's data: route quality per protocol at one
// mobility point (the paper tests 72 km/h).
type QualityResult struct {
	SpeedKmh float64
	Order    []protocol.Protocol
	Cells    map[protocol.Protocol]Result
}

// Quality runs the Figure 5 experiment.
func Quality(speedKmh, load float64, o Options) QualityResult {
	o = o.withDefaults()
	return QualityResult{SpeedKmh: speedKmh, Order: o.Protocols, Cells: o.point(load, speedKmh)}
}

// Table renders Figure 5(a) and 5(b): average link throughput and average
// hop count (in the paper's CSI hop unit, with geographic hops and the
// loop telltale alongside).
func (q QualityResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Route quality at %.0f km/h\n", q.SpeedKmh)
	fmt.Fprintf(&b, "%-10s%18s%12s%12s%10s\n", "", "linkTP (kbps)", "CSI hops", "geo hops", "max hops")
	for _, p := range q.Order {
		m := q.Cells[p].Mean
		fmt.Fprintf(&b, "%-10s%18.1f%12.2f%12.2f%10d\n",
			p.String(), m.LinkThroughputK, m.CSIHops, m.GeoHops, m.MaxHops)
	}
	return b.String()
}

// SeriesResult is Figure 6's data: the aggregate delivered-throughput
// time series per protocol at one load.
type SeriesResult struct {
	Load     float64
	SpeedKmh float64
	Order    []protocol.Protocol
	Cells    map[protocol.Protocol]Result
}

// Series runs the Figure 6 experiment: throughput sampled every 4 s.
func Series(load, speedKmh float64, o Options) SeriesResult {
	o = o.withDefaults()
	return SeriesResult{Load: load, SpeedKmh: speedKmh, Order: o.Protocols, Cells: o.point(load, speedKmh)}
}

// Table renders the series with one row per 4 s bucket.
func (s SeriesResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggregate network throughput (kbps per 4 s bucket) — %.0f packets/s per flow, %.0f km/h\n",
		s.Load, s.SpeedKmh)
	fmt.Fprintf(&b, "%-8s", "t (s)")
	for _, p := range s.Order {
		fmt.Fprintf(&b, "%11s", p.String())
	}
	b.WriteByte('\n')
	buckets := 0
	for _, p := range s.Order {
		if n := len(s.Cells[p].Mean.ThroughputSeries); n > buckets {
			buckets = n
		}
	}
	for i := 0; i < buckets; i++ {
		fmt.Fprintf(&b, "%-8d", i*4)
		for _, p := range s.Order {
			series := s.Cells[p].Mean.ThroughputSeries
			v := 0.0
			if i < len(series) {
				v = series[i]
			}
			fmt.Fprintf(&b, "%11.1f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MeanSeries reports the time-average of a protocol's Figure 6 curve,
// skipping the warm-up bucket.
func (s SeriesResult) MeanSeries(p protocol.Protocol) float64 {
	series := s.Cells[p].Mean.ThroughputSeries
	if len(series) <= 1 {
		return 0
	}
	sum := 0.0
	for _, v := range series[1:] {
		sum += v
	}
	return sum / float64(len(series)-1)
}
