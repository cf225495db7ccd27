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
	"rica/internal/metrics"
	"rica/internal/packet"
)

// Model holds the radio power parameters.
type Model struct {
	// TxPowerW is the transmit power draw in watts while sending.
	TxPowerW float64
	// CommonBitrate is the common channel's rate (routing packets).
	CommonBitrate float64
}

// DefaultModel uses a 1 W transceiver (typical early-2000s 802.11-class
// hardware) and the paper's 250 kbps common channel.
func DefaultModel() Model {
	return Model{TxPowerW: 1.0, CommonBitrate: 250_000}
}

// Meter accumulates transmit energy for one simulation run. Attach its
// hook methods to the MAC observers, then fold Stats into the summary.
type Meter struct {
	model    Model
	controlJ float64
	dataJ    float64

	// PerNode tracks per-terminal totals for fairness analysis.
	perNode []float64
}

// NewMeter builds a meter for n terminals.
func NewMeter(model Model, n int) *Meter {
	return &Meter{model: model, perNode: make([]float64, n)}
}

// ControlTransmitted accounts one routing packet on the common channel
// (mac.CommonChannel.OnTransmit).
func (m *Meter) ControlTransmitted(pkt *packet.Packet, from int, _ time.Duration) {
	airtime := float64(pkt.Size*8) / m.model.CommonBitrate
	j := m.model.TxPowerW * airtime
	m.controlJ += j
	if from >= 0 && from < len(m.perNode) {
		m.perNode[from] += j
	}
}

// DataTransmitted accounts one data-channel transmission at the given
// class (wire to mac.DataPlane.OnDataTransmit). Blind transmissions into
// a broken link pass ClassNone and are billed at the most robust rate,
// matching the airtime the MAC actually spends.
func (m *Meter) DataTransmitted(from, to int, class channel.Class, sizeBytes int, _ time.Duration) {
	if !class.Usable() {
		class = channel.ClassD
	}
	airtime := float64(sizeBytes*8) / class.ThroughputBps()
	j := m.model.TxPowerW * airtime
	m.dataJ += j
	if from >= 0 && from < len(m.perNode) {
		m.perNode[from] += j
	}
}

// Stats freezes the totals; deliveredBits normalizes the per-bit cost.
func (m *Meter) Stats(deliveredBits float64) metrics.EnergyStats {
	s := metrics.EnergyStats{ControlJ: m.controlJ, DataJ: m.dataJ}
	if deliveredBits > 0 {
		s.PerDeliveredBitJ = s.TotalJ() / deliveredBits
	}
	return s
}

// PerNode returns a copy of the per-terminal energy totals in joules.
func (m *Meter) PerNode() []float64 {
	out := make([]float64, len(m.perNode))
	copy(out, m.perNode)
	return out
}
