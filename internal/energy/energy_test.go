package energy

import (
	"math"
	"testing"

	"rica/internal/channel"
	"rica/internal/packet"
)

func TestControlEnergy(t *testing.T) {
	m := NewMeter()
	pkt := &packet.Packet{Type: packet.TypeRREQ, Size: packet.SizeRREQ}
	m.ControlTransmitted(pkt, 2, 0)
	// 24 bytes at 250 kbps at 1 W = 192/250000 J.
	want := 192.0 / 250_000
	s := m.Stats(0)
	if math.Abs(s.ControlJ-want) > 1e-12 {
		t.Fatalf("ControlJ = %v, want %v", s.ControlJ, want)
	}
	if s.DataJ != 0 {
		t.Fatalf("DataJ = %v, want 0", s.DataJ)
	}
}

func TestDataEnergyScalesWithClass(t *testing.T) {
	m := NewMeter()
	m.DataTransmitted(0, 1, channel.ClassA, packet.SizeData, 0)
	a := m.Stats(0).DataJ
	m2 := NewMeter()
	m2.DataTransmitted(0, 1, channel.ClassD, packet.SizeData, 0)
	d := m2.Stats(0).DataJ
	if ratio := d / a; math.Abs(ratio-5) > 1e-9 {
		t.Fatalf("class D / class A energy ratio = %v, want 5", ratio)
	}
}

func TestBlindTransmissionBilledAtWorstClass(t *testing.T) {
	m := NewMeter()
	m.DataTransmitted(0, 1, channel.ClassNone, packet.SizeData, 0)
	blind := m.Stats(0).DataJ
	m2 := NewMeter()
	m2.DataTransmitted(0, 1, channel.ClassD, packet.SizeData, 0)
	if blind != m2.Stats(0).DataJ {
		t.Fatalf("blind attempt billed %v, want class-D cost %v", blind, m2.Stats(0).DataJ)
	}
}

func TestPerDeliveredBitNormalization(t *testing.T) {
	m := NewMeter()
	m.DataTransmitted(0, 1, channel.ClassA, packet.SizeData, 0)
	s := m.Stats(4096) // one delivered 512-byte packet
	wantPerBit := s.TotalJ() / 4096
	if math.Abs(s.PerDeliveredBitJ-wantPerBit) > 1e-18 {
		t.Fatalf("PerDeliveredBitJ = %v, want %v", s.PerDeliveredBitJ, wantPerBit)
	}
	if z := m.Stats(0); z.PerDeliveredBitJ != 0 {
		t.Fatalf("zero delivered bits must not divide: %v", z.PerDeliveredBitJ)
	}
}
