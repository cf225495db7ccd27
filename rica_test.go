package rica_test

import (
	"testing"
	"time"

	"rica"
)

func TestSimulateBasics(t *testing.T) {
	s := rica.Simulate(rica.SimConfig{
		Protocol:     rica.ProtocolRICA,
		MeanSpeedKmh: 20,
		Rate:         10,
		Duration:     20 * time.Second,
		Seed:         1,
	})
	if s.Generated == 0 || s.Delivered == 0 {
		t.Fatalf("empty run: %+v", s)
	}
	if s.DeliveryRatio <= 0.5 {
		t.Fatalf("delivery ratio %.2f implausibly low", s.DeliveryRatio)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := rica.SimConfig{
		Protocol: rica.ProtocolAODV, MeanSpeedKmh: 30, Rate: 10,
		Duration: 15 * time.Second, Seed: 9,
	}
	a, b := rica.Simulate(cfg), rica.Simulate(cfg)
	if a.Delivered != b.Delivered || a.AvgDelay != b.AvgDelay {
		t.Fatal("same SimConfig produced different runs")
	}
}

func TestSimulateCustomFlows(t *testing.T) {
	s := rica.Simulate(rica.SimConfig{
		Protocol:     rica.ProtocolRICA,
		MeanSpeedKmh: 10,
		Rate:         10,
		Duration:     15 * time.Second,
		Seed:         2,
		Flows: []rica.Flow{
			{Src: 0, Dst: 49, Rate: 20},
			{Src: 10, Dst: 30, Rate: 5},
		},
	})
	// ~25 packets/s for 15 s.
	if s.Generated < 200 || s.Generated > 550 {
		t.Fatalf("generated %d with custom flows, want ≈375", s.Generated)
	}
}

func TestSimulateBufferCapOverride(t *testing.T) {
	base := rica.SimConfig{
		Protocol: rica.ProtocolAODV, MeanSpeedKmh: 0, Rate: 20,
		Duration: 20 * time.Second, Seed: 3,
	}
	tiny := base
	tiny.BufferCap = 1
	def := rica.Simulate(base)
	small := rica.Simulate(tiny)
	if small.Dropped == nil || small.DeliveryRatio >= def.DeliveryRatio {
		t.Fatalf("1-packet buffers did not hurt delivery: %.2f vs %.2f",
			small.DeliveryRatio, def.DeliveryRatio)
	}
}

// TestTraceRecordsControlLosses: on a cell loaded enough to saturate the
// common channel, the trace shows every routing transmission and every
// routing packet abandoned to congestion — the counts the summary reports.
func TestTraceRecordsControlLosses(t *testing.T) {
	s, events := rica.SimulateTraced(rica.SimConfig{
		Protocol: rica.ProtocolRICA, MeanSpeedKmh: 36, Rate: 20,
		Duration: 10 * time.Second, Seed: 4,
	}, 1<<20)
	if s.ControlDropped == 0 {
		t.Fatal("cell lost no control packets; pick a heavier load")
	}
	var sent, lost int64
	for _, e := range events {
		switch e.Kind {
		case rica.TraceControl:
			sent++
		case rica.TraceControlLost:
			lost++
		}
	}
	if lost != s.ControlDropped {
		t.Fatalf("trace shows %d CTL-LOST events, summary counts %d", lost, s.ControlDropped)
	}
	if sent != s.ControlPackets {
		t.Fatalf("trace shows %d CTL events, summary counts %d", sent, s.ControlPackets)
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for _, p := range rica.AllProtocols() {
		got, err := rica.ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip failed for %v", p)
		}
	}
}
