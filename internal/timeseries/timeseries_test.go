package timeseries

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
)

func pkt(size int, createdAt time.Duration) *packet.Packet {
	return &packet.Packet{Type: packet.TypeData, Size: size, Src: 1, Dst: 2, CreatedAt: createdAt}
}

func TestBucketing(t *testing.T) {
	c := NewCollector(time.Second, 5*time.Second)

	c.DataGenerated(pkt(512, 0), 100*time.Millisecond)
	c.DataGenerated(pkt(512, 0), 900*time.Millisecond)
	c.DataDelivered(pkt(512, 100*time.Millisecond), 600*time.Millisecond)
	// Second interval: one generation, one delivery of an older packet.
	c.DataGenerated(pkt(512, 0), 1500*time.Millisecond)
	c.DataDelivered(pkt(512, 200*time.Millisecond), 1200*time.Millisecond)
	// Fourth interval: a drop.
	c.DataDropped(pkt(512, 0), network.DropLinkBreak, 3500*time.Millisecond)

	tl := c.Timeline()
	if len(tl.Points) != 5 {
		t.Fatalf("points = %d, want 5 (horizon/interval)", len(tl.Points))
	}
	if tl.IntervalS != 1 {
		t.Fatalf("IntervalS = %g, want 1", tl.IntervalS)
	}
	p0 := tl.Points[0]
	if p0.Generated != 2 || p0.Delivered != 1 {
		t.Fatalf("interval 0 = %+v, want 2 generated / 1 delivered", p0)
	}
	if p0.DeliveryRatio != 0.5 {
		t.Fatalf("interval 0 ratio = %g, want 0.5", p0.DeliveryRatio)
	}
	if want := 500.0; p0.AvgDelayMs != want {
		t.Fatalf("interval 0 avg delay = %g ms, want %g", p0.AvgDelayMs, want)
	}
	p1 := tl.Points[1]
	if p1.Generated != 1 || p1.Delivered != 1 || p1.DeliveryRatio != 1 {
		t.Fatalf("interval 1 = %+v", p1)
	}
	p3 := tl.Points[3]
	if p3.DropLinkBreak != 1 || p3.DropCongestion != 0 {
		t.Fatalf("interval 3 drops = %+v", p3)
	}
	// Untouched interval is present, zeroed.
	if p2 := tl.Points[2]; p2.Generated != 0 || p2.Delivered != 0 || p2.StartS != 2 {
		t.Fatalf("interval 2 = %+v, want zeros at t=2s", p2)
	}
}

func TestGrowsPastHorizon(t *testing.T) {
	c := NewCollector(time.Second, 2*time.Second)
	c.DataDelivered(pkt(512, 0), 4500*time.Millisecond) // straggler past horizon
	tl := c.Timeline()
	if len(tl.Points) != 5 {
		t.Fatalf("points = %d, want 5 after growth", len(tl.Points))
	}
	if tl.Points[4].Delivered != 1 {
		t.Fatalf("straggler missing: %+v", tl.Points[4])
	}
}

func TestZeroIntervalAndHorizonDefaults(t *testing.T) {
	c := NewCollector(0, 0)
	if c.Interval() != DefaultInterval {
		t.Fatalf("interval = %v, want %v", c.Interval(), DefaultInterval)
	}
	if tl := c.Timeline(); len(tl.Points) != 0 {
		t.Fatalf("empty collector has %d points", len(tl.Points))
	}
}

func TestDelayPercentiles(t *testing.T) {
	c := NewCollector(time.Second, time.Second)
	// Delays 10ms..100ms, all in interval 0.
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		c.DataDelivered(pkt(512, 0), d)
	}
	p := c.Timeline().Points[0]
	if p.P50DelayMs < 50 || p.P50DelayMs > 60 {
		t.Fatalf("p50 = %g ms, want ≈ 50-60", p.P50DelayMs)
	}
	if p.P95DelayMs < 90 || p.P95DelayMs > 100 {
		t.Fatalf("p95 = %g ms, want ≈ 90-100", p.P95DelayMs)
	}
	if want := 55.0; p.AvgDelayMs != want {
		t.Fatalf("avg = %g ms, want %g", p.AvgDelayMs, want)
	}
}

func TestControlAndChurnCounters(t *testing.T) {
	c := NewCollector(time.Second, 2*time.Second)
	ctl := &packet.Packet{Type: packet.TypeRREQ, Size: 25}
	c.ControlTransmitted(ctl, 0, 100*time.Millisecond)
	c.ControlTransmitted(ctl, 1, 200*time.Millisecond)
	c.ControlDropped(ctl, 2, 300*time.Millisecond)
	c.AckTransmitted(25, 400*time.Millisecond)
	c.RouteInstalled(3, 500*time.Millisecond)
	c.RouteInstalled(4, 1500*time.Millisecond)
	c.RouteInvalidated(3, 1600*time.Millisecond)

	tl := c.Timeline()
	p0, p1 := tl.Points[0], tl.Points[1]
	if p0.ControlPackets != 2 || p0.ControlDropped != 1 {
		t.Fatalf("interval 0 control = %+v", p0)
	}
	// 2×25 bytes control + 25 bytes ACK = 600 bits over 1 s = 0.6 kbps.
	if want := 0.6; p0.OverheadKbps != want {
		t.Fatalf("overhead = %g kbps, want %g", p0.OverheadKbps, want)
	}
	if p0.RouteInstalls != 1 || p0.RouteInvalidations != 0 {
		t.Fatalf("interval 0 churn = %+v", p0)
	}
	if p1.RouteInstalls != 1 || p1.RouteInvalidations != 1 {
		t.Fatalf("interval 1 churn = %+v", p1)
	}
}

// TestEveryDropReasonHasAColumn: each reason in the enum lands in its
// own timeline column, and one outside it panics instead of vanishing.
func TestEveryDropReasonHasAColumn(t *testing.T) {
	c := NewCollector(time.Second, time.Second)
	for r := network.DropReason(1); int(r) <= network.NumDropReasons; r++ {
		c.DataDropped(pkt(512, 0), r, 0)
	}
	p := c.Timeline().Points[0]
	cols := []int{p.DropCongestion, p.DropExpired, p.DropNoRoute, p.DropLinkBreak, p.DropAdversary}
	if len(cols) != network.NumDropReasons {
		t.Fatalf("Point has %d drop columns, the enum has %d reasons", len(cols), network.NumDropReasons)
	}
	for i, n := range cols {
		if n != 1 {
			t.Fatalf("drop column %d = %d, want 1 (%+v)", i, n, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown drop reason did not panic")
		}
	}()
	c.DataDropped(pkt(512, 0), network.DropReason(network.NumDropReasons+1), 0)
}

func TestJSONLSink(t *testing.T) {
	c := NewCollector(time.Second, 2*time.Second)
	c.DataGenerated(pkt(512, 0), 100*time.Millisecond)
	c.DataDelivered(pkt(512, 0), 600*time.Millisecond)

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	run := Run{Scenario: "chain-10", Protocol: "RICA", Seed: 7}
	if err := sink.Emit(run, c.Timeline()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (one per interval)", len(lines))
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if row["scenario"] != "chain-10" || row["protocol"] != "RICA" || row["seed"] != float64(7) {
		t.Fatalf("row metadata = %v", row)
	}
	if row["generated"] != float64(1) || row["delivered"] != float64(1) {
		t.Fatalf("row counters = %v", row)
	}
	if _, ok := row["route_installs"]; !ok {
		t.Fatalf("row missing churn column: %v", row)
	}
}

func TestCSVSink(t *testing.T) {
	c := NewCollector(time.Second, time.Second)
	c.DataGenerated(pkt(512, 0), 0)

	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	if err := sink.Emit(Run{Scenario: "a", Protocol: "AODV", Seed: 1}, c.Timeline()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(Run{Scenario: "b", Protocol: "AODV", Seed: 1}, c.Timeline()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "scenario,protocol,seed,") {
		t.Fatalf("header = %q", lines[0])
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("row has %d columns, header has %d", got, want)
	}
	if !strings.HasPrefix(lines[1], "a,AODV,1,") || !strings.HasPrefix(lines[2], "b,AODV,1,") {
		t.Fatalf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestCSVSinkEscapesFreeTextFields(t *testing.T) {
	c := NewCollector(time.Second, time.Second)
	c.DataGenerated(pkt(512, 0), 0)

	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	run := Run{Scenario: `urban, "dense"`, Protocol: "RICA", Seed: 1}
	if err := sink.Emit(run, c.Timeline()); err != nil {
		t.Fatal(err)
	}
	// encoding/csv must read the row back with exactly the header's
	// column count and the original name intact.
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) != 2 || len(rows[1]) != len(rows[0]) {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][0] != `urban, "dense"` {
		t.Fatalf("scenario field round-tripped as %q", rows[1][0])
	}
}

func TestMemorySinkRetainsOrder(t *testing.T) {
	var sink MemorySink
	c := NewCollector(time.Second, time.Second)
	for _, name := range []string{"x", "y", "z"} {
		if err := sink.Emit(Run{Scenario: name}, c.Timeline()); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(sink.Runs))
	}
	for i, want := range []string{"x", "y", "z"} {
		if sink.Runs[i].Run.Scenario != want {
			t.Fatalf("run %d = %q, want %q", i, sink.Runs[i].Run.Scenario, want)
		}
	}
}
