package rica_test

import (
	"errors"
	"testing"
	"time"

	"rica"
)

// paperRun is one run of the paper's field (rica.PaperField) at a mean
// speed (km/h), per-flow load (packets/s) and horizon.
func paperRun(tb testing.TB, p rica.Protocol, speedKmh, load float64, horizon time.Duration, seed int64) rica.ScenarioRun {
	tb.Helper()
	field, err := rica.PaperField(speedKmh, load, horizon)
	if err != nil {
		tb.Fatal(err)
	}
	return rica.ScenarioRun{Scenario: field, Protocol: p, Seed: seed}
}

// mustRun is rica.Run for runs that cannot fail.
func mustRun(tb testing.TB, r rica.ScenarioRun, o rica.RunOptions) rica.Summary {
	tb.Helper()
	s, err := rica.Run(r, o)
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return s
}

func TestSimulateBasics(t *testing.T) {
	s := mustRun(t, paperRun(t, rica.ProtocolRICA, 20, 10, 20*time.Second, 1), rica.RunOptions{})
	if s.Generated == 0 || s.Delivered == 0 {
		t.Fatalf("empty run: %+v", s)
	}
	if s.DeliveryRatio <= 0.5 {
		t.Fatalf("delivery ratio %.2f implausibly low", s.DeliveryRatio)
	}
}

// TestSimulateDeterminism: equal runs are bit-equal, and an omitted Seed
// means the library default, seed 1.
func TestSimulateDeterminism(t *testing.T) {
	r := paperRun(t, rica.ProtocolAODV, 30, 10, 15*time.Second, 9)
	a, b := mustRun(t, r, rica.RunOptions{}), mustRun(t, r, rica.RunOptions{})
	if rica.Fingerprint(a) != rica.Fingerprint(b) {
		t.Fatal("same ScenarioRun produced different runs")
	}
	r.Seed = 0
	omitted := mustRun(t, r, rica.RunOptions{})
	r.Seed = 1
	if one := mustRun(t, r, rica.RunOptions{}); rica.Fingerprint(omitted) != rica.Fingerprint(one) {
		t.Error("an omitted seed must keep meaning the default seed 1")
	}
	if rica.Fingerprint(omitted) == rica.Fingerprint(a) {
		t.Error("seeds 1 and 9 ran the same universe")
	}
}

func TestSimulateCustomFlows(t *testing.T) {
	r := paperRun(t, rica.ProtocolRICA, 10, 12.5, 15*time.Second, 2)
	r.Scenario.Traffic.Pairs = []rica.ScenarioPair{{Src: 0, Dst: 49}, {Src: 10, Dst: 30}}
	s := mustRun(t, r, rica.RunOptions{})
	// Two pinned flows of 12.5 packets/s for 15 s.
	if s.Generated < 200 || s.Generated > 550 {
		t.Fatalf("generated %d with custom flows, want ≈375", s.Generated)
	}
}

func TestSimulateBufferCapOverride(t *testing.T) {
	base := paperRun(t, rica.ProtocolAODV, 0, 20, 20*time.Second, 3)
	tiny := base
	tiny.Scenario.BufferCap = 1
	def := mustRun(t, base, rica.RunOptions{})
	small := mustRun(t, tiny, rica.RunOptions{})
	if small.Dropped == nil || small.DeliveryRatio >= def.DeliveryRatio {
		t.Fatalf("1-packet buffers did not hurt delivery: %.2f vs %.2f",
			small.DeliveryRatio, def.DeliveryRatio)
	}
}

// TestTraceRecordsControlLosses: on a cell loaded enough to saturate the
// common channel, the trace shows every routing transmission and every
// routing packet abandoned to congestion — the counts the summary reports.
func TestTraceRecordsControlLosses(t *testing.T) {
	rec := rica.NewTraceRecorder(1 << 20)
	s := mustRun(t, paperRun(t, rica.ProtocolRICA, 36, 20, 10*time.Second, 4), rica.RunOptions{Trace: rec})
	if s.ControlDropped == 0 {
		t.Fatal("cell lost no control packets; pick a heavier load")
	}
	var sent, lost int64
	for _, e := range rec.Events() {
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

// failingSink refuses every timeline.
type failingSink struct{ err error }

func (f failingSink) Emit(rica.TimelineRun, rica.Timeline) error { return f.err }

// TestRunReportsSinkFailure: a timeline sink that cannot take the
// timeline fails the run — after it, so the summary is complete — and
// the error carries the sink's.
func TestRunReportsSinkFailure(t *testing.T) {
	r := paperRun(t, rica.ProtocolRICA, 36, 10, 2*time.Second, 1)
	disk := errors.New("disk full")
	s, err := rica.Run(r, rica.RunOptions{Telemetry: &rica.Telemetry{Sink: failingSink{disk}}})
	if !errors.Is(err, disk) {
		t.Fatalf("Run with a failing sink: err = %v, want it to wrap %q", err, disk)
	}
	if want := mustRun(t, r, rica.RunOptions{}); rica.Fingerprint(s) != rica.Fingerprint(want) {
		t.Errorf("summary returned beside the sink error is not the run's\n got: %s\nwant: %s",
			rica.Fingerprint(s), rica.Fingerprint(want))
	}
}
