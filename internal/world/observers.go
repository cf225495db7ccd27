package world

import (
	"time"

	"rica/internal/channel"
	"rica/internal/energy"
	"rica/internal/metrics"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/timeseries"
	"rica/internal/trace"
	"rica/internal/traffic"
)

// observers is a world's one observation seam: every event a run reports
// — the data-plane lifecycle and route churn from the nodes, the four
// MAC hooks — arrives at one method here, which hands it to each
// attached consumer that takes that kind, always in field order. gossip
// is first because it is the one consumer that feeds back into the run
// (a delivery infects its receiver, which may start sending), so it acts
// before anything merely counts the delivery. gossip, trace and series
// are nil when the run has none; New always sets the other three.
type observers struct {
	gossip    *traffic.Gossip
	reg       *obs.Registry
	collector *metrics.Collector
	meter     *energy.Meter
	trace     *trace.Recorder
	series    *timeseries.Collector
}

// DataGenerated implements network.Recorder.
func (o *observers) DataGenerated(pkt *packet.Packet, now time.Duration) {
	o.collector.DataGenerated(pkt, now)
	if o.trace != nil {
		o.trace.DataGenerated(pkt, now)
	}
	if o.series != nil {
		o.series.DataGenerated(pkt, now)
	}
}

// DataDelivered implements network.Recorder.
func (o *observers) DataDelivered(pkt *packet.Packet, now time.Duration) {
	if o.gossip != nil {
		o.gossip.Delivered(pkt, now)
	}
	o.reg.Observe(obs.HDelayNs, uint64(now-pkt.CreatedAt))
	o.collector.DataDelivered(pkt, now)
	if o.trace != nil {
		o.trace.DataDelivered(pkt, now)
	}
	if o.series != nil {
		o.series.DataDelivered(pkt, now)
	}
}

// DataDropped implements network.Recorder.
func (o *observers) DataDropped(pkt *packet.Packet, reason network.DropReason, now time.Duration) {
	o.collector.DataDropped(pkt, reason, now)
	if o.trace != nil {
		o.trace.DataDropped(pkt, reason, now)
	}
	if o.series != nil {
		o.series.DataDropped(pkt, reason, now)
	}
}

// RouteInstalled implements network.Recorder.
func (o *observers) RouteInstalled(node int, now time.Duration) {
	if o.series != nil {
		o.series.RouteInstalled(node, now)
	}
}

// RouteInvalidated implements network.Recorder.
func (o *observers) RouteInvalidated(node int, now time.Duration) {
	if o.series != nil {
		o.series.RouteInvalidated(node, now)
	}
}

// ControlTransmitted is the mac.CommonChannel.OnTransmit hook.
func (o *observers) ControlTransmitted(pkt *packet.Packet, from int, now time.Duration) {
	o.collector.ControlTransmitted(pkt, from, now)
	o.meter.ControlTransmitted(pkt, from, now)
	if o.trace != nil {
		o.trace.ControlTransmitted(pkt, from, now)
	}
	if o.series != nil {
		o.series.ControlTransmitted(pkt, from, now)
	}
}

// ControlDropped is the mac.CommonChannel.OnDropped hook.
func (o *observers) ControlDropped(pkt *packet.Packet, from int, now time.Duration) {
	o.collector.ControlDropped(pkt, from, now)
	if o.trace != nil {
		o.trace.ControlDropped(pkt, from, now)
	}
	if o.series != nil {
		o.series.ControlDropped(pkt, from, now)
	}
}

// AckTransmitted is the mac.DataPlane.OnAck hook.
func (o *observers) AckTransmitted(sizeBytes int, now time.Duration) {
	o.collector.AckTransmitted(sizeBytes, now)
	if o.series != nil {
		o.series.AckTransmitted(sizeBytes, now)
	}
}

// DataTransmitted is the mac.DataPlane.OnDataTransmit hook.
func (o *observers) DataTransmitted(from, to int, class channel.Class, sizeBytes int, now time.Duration) {
	o.meter.DataTransmitted(from, to, class, sizeBytes, now)
}
