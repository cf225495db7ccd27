// Package energy adds transmit-energy accounting to a simulation — the
// extension the paper motivates by the "limited battery power in each
// mobile terminal" when it criticizes the link-state protocol's flooding
// ([11], [14]). The model is deliberately simple and first-order: a
// radio burns a constant transmit power for the duration a packet is on
// air, so energy per packet is power × airtime. Because the data channels
// run at the channel class's throughput, a class-D hop costs five times
// the energy per bit of a class-A hop — which makes channel-adaptive
// routing an energy optimization as well as a latency one.
package energy

import (
	"time"

	"rica/internal/channel"
	"rica/internal/mac"
	"rica/internal/metrics"
	"rica/internal/packet"
)

// txPowerW is the transmit power draw in watts while sending: a 1 W
// transceiver, typical of early-2000s 802.11-class hardware.
const txPowerW = 1.0

// Meter accumulates transmit energy for one simulation run. Attach its
// hook methods to the MAC observers, then fold Stats into the summary.
type Meter struct {
	controlJ float64
	dataJ    float64
}

// NewMeter builds an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// ControlTransmitted accounts one routing packet on the common channel
// (mac.CommonChannel.OnTransmit).
func (m *Meter) ControlTransmitted(pkt *packet.Packet, _ int, _ time.Duration) {
	airtime := float64(pkt.Size*8) / mac.CommonBitrate
	j := txPowerW * airtime
	m.controlJ += j
}

// DataTransmitted accounts one data-channel transmission at the given
// class (wire to mac.DataPlane.OnDataTransmit). Blind transmissions into
// a broken link pass ClassNone and are billed at the most robust rate,
// matching the airtime the MAC actually spends.
func (m *Meter) DataTransmitted(_, _ int, class channel.Class, sizeBytes int, _ time.Duration) {
	if !class.Usable() {
		class = channel.ClassD
	}
	airtime := float64(sizeBytes*8) / class.ThroughputBps()
	j := txPowerW * airtime
	m.dataJ += j
}

// Stats freezes the totals; deliveredBits normalizes the per-bit cost.
func (m *Meter) Stats(deliveredBits float64) metrics.EnergyStats {
	s := metrics.EnergyStats{ControlJ: m.controlJ, DataJ: m.dataJ}
	if deliveredBits > 0 {
		s.PerDeliveredBitJ = s.TotalJ() / deliveredBits
	}
	return s
}
