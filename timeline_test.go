package rica_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rica"
)

func TestSimulateTimelineConsistentWithSummary(t *testing.T) {
	var sink rica.MemoryTimelineSink
	summary := mustRun(t, paperRun(t, rica.ProtocolRICA, 36, 10, 20*time.Second, 2), rica.RunOptions{
		Telemetry: &rica.Telemetry{Interval: time.Second, Sink: &sink},
	})
	if len(sink.Runs) != 1 {
		t.Fatalf("sink holds %d timelines after one run", len(sink.Runs))
	}
	tl := sink.Runs[0].Timeline
	if len(tl.Points) < 20 {
		t.Fatalf("timeline has %d points for a 20 s run at 1 s intervals", len(tl.Points))
	}
	var gen, dlv int
	var ctl int64
	for _, p := range tl.Points {
		gen += p.Generated
		dlv += p.Delivered
		ctl += p.ControlPackets
	}
	if gen != summary.Generated || dlv != summary.Delivered {
		t.Fatalf("timeline sums gen=%d dlv=%d, summary gen=%d dlv=%d",
			gen, dlv, summary.Generated, summary.Delivered)
	}
	if ctl != summary.ControlPackets {
		t.Fatalf("timeline control packets %d, summary %d", ctl, summary.ControlPackets)
	}
}

func TestSimulateTimelineDeterminism(t *testing.T) {
	run := func() *bytes.Buffer {
		var buf bytes.Buffer
		mustRun(t, paperRun(t, rica.ProtocolAODV, 18, 8, 10*time.Second, 5), rica.RunOptions{
			Telemetry: &rica.Telemetry{
				Interval: 2 * time.Second,
				Sink:     rica.NewJSONLTimelineSink(&buf),
			},
		})
		return &buf
	}
	a, b := run(), run()
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("equal seeds emitted different timelines (%d vs %d bytes)", a.Len(), b.Len())
	}
	line, _, _ := strings.Cut(a.String(), "\n")
	if !strings.Contains(line, `"protocol":"AODV"`) || !strings.Contains(line, `"seed":5`) {
		t.Fatalf("sink row missing run metadata: %s", line)
	}
}
