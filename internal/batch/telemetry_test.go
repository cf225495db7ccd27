package batch

import (
	"bytes"
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/timeseries"
)

// telemetryGrid is the failure/heal workload the telemetry acceptance
// rides on: the partition-heal built-in under one protocol, two seeds.
func telemetryGrid(t *testing.T) Config {
	t.Helper()
	spec, err := scenario.ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scenarios: []scenario.Spec{spec},
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    2,
	}
}

func TestTelemetrySerialParallelByteIdentical(t *testing.T) {
	runOnce := func(workers int) []byte {
		var buf bytes.Buffer
		cfg := telemetryGrid(t)
		cfg.Workers = workers
		cfg.Telemetry = &Telemetry{Interval: 2 * time.Second, Sink: timeseries.NewJSONLSink(&buf)}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runOnce(1)
	parallel := runOnce(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("telemetry streams differ between serial (%d bytes) and parallel (%d bytes)",
			len(serial), len(parallel))
	}
	if len(serial) == 0 {
		t.Fatal("telemetry stream is empty")
	}
}

func TestTelemetryShowsFailureDipAndRecovery(t *testing.T) {
	var sink timeseries.MemorySink
	cfg := telemetryGrid(t)
	cfg.Trials = 1
	cfg.Telemetry = &Telemetry{Interval: 5 * time.Second, Sink: &sink}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(sink.Runs) != 1 {
		t.Fatalf("emitted %d timelines, want 1", len(sink.Runs))
	}
	tl := sink.Runs[0].Timeline
	// partition-heal: terminal 3 (the only bridge of a 7-node chain) is
	// down until t=40s, so the 0→6 cross flow cannot deliver; after the
	// heal every flow can. Compare mean per-interval delivery ratio in the
	// outage steady state vs the healed steady state (skipping warmup and
	// convergence edges).
	mean := func(fromS, toS float64) float64 {
		sum, n := 0.0, 0
		for _, p := range tl.Points {
			if p.StartS >= fromS && p.StartS < toS && p.Generated > 0 {
				sum += p.DeliveryRatio
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no generating intervals in [%g, %g)", fromS, toS)
		}
		return sum / float64(n)
	}
	down := mean(5, 40)
	healed := mean(60, 115)
	if healed <= down {
		t.Fatalf("no recovery visible: delivery %.3f while partitioned vs %.3f healed", down, healed)
	}
	// The dip must be substantial — a third of the flows are severed.
	if healed-down < 0.15 {
		t.Fatalf("recovery too shallow: %.3f → %.3f", down, healed)
	}

	// The run must also surface control traffic and route churn.
	var ctl, installs int64
	for _, p := range tl.Points {
		ctl += p.ControlPackets
		installs += int64(p.RouteInstalls)
	}
	if ctl == 0 {
		t.Fatal("timeline recorded no control packets")
	}
	if installs == 0 {
		t.Fatal("timeline recorded no route installs")
	}
}

func TestTelemetryNeedsSink(t *testing.T) {
	cfg := telemetryGrid(t)
	cfg.Telemetry = &Telemetry{Interval: time.Second}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted Telemetry without a Sink")
	}
}

func TestAggregatesUnchangedByTelemetry(t *testing.T) {
	// Collecting a timeline must not perturb the simulation: the
	// aggregate rows with and without telemetry attached are identical.
	plain := telemetryGrid(t)
	res1, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	withTL := telemetryGrid(t)
	var sink timeseries.MemorySink
	withTL.Telemetry = &Telemetry{Interval: time.Second, Sink: &sink}
	res2, err := Run(withTL)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := res1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := res2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("telemetry changed the aggregate results")
	}
}
