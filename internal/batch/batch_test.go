package batch

import (
	"bytes"
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// testSpec is a fast deterministic grid cell: a short static chain.
func testSpec(dur time.Duration) scenario.Spec {
	return scenario.Spec{
		Name:     "test-chain",
		Topology: scenario.Topology{Kind: scenario.TopoChain, N: 5, Spacing: 200},
		Traffic: scenario.Traffic{
			Kind: scenario.TrafficPoisson, Rate: 10,
			Pairs: []scenario.Pair{{Src: 0, Dst: 4}},
		},
		Duration: scenario.Duration(dur),
	}
}

// TestBatchDeterministic: the same grid and base seed export bit-equal
// results regardless of worker count or repetition.
func TestBatchDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		res, err := Run(Config{
			Scenarios: []scenario.Spec{testSpec(15 * time.Second)},
			Protocols: []protocol.Protocol{protocol.RICA, protocol.AODV},
			Trials:    2,
			BaseSeed:  7,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := run(1)
	if !bytes.Equal(first, run(1)) {
		t.Error("two serial runs differ")
	}
	if !bytes.Equal(first, run(8)) {
		t.Error("parallel run differs from serial run")
	}
}

// TestBatchGridOrderAndProgress: results come back in grid order
// (scenario-major, then protocol, then seed) no matter which worker
// finished first, and every cell reports progress exactly once.
func TestBatchGridOrderAndProgress(t *testing.T) {
	var seen int
	res, err := Run(Config{
		Scenarios: []scenario.Spec{testSpec(10 * time.Second)},
		Protocols: []protocol.Protocol{protocol.RICA, protocol.AODV},
		Trials:    3,
		Workers:   4,
		OnProgress: func(p Progress) {
			seen++
			if p.Done != seen || p.Total != 6 {
				t.Errorf("progress %d/%d, want %d/6", p.Done, p.Total, seen)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 6 {
		t.Errorf("progress fired %d times, want 6", seen)
	}
	if len(res.Cells) != 6 || len(res.Aggregates) != 2 {
		t.Fatalf("got %d cells, %d aggregates", len(res.Cells), len(res.Aggregates))
	}
	for i, c := range res.Cells {
		wantProto := "RICA"
		if i >= 3 {
			wantProto = "AODV"
		}
		wantSeed := int64(1 + i%3)
		if c.Protocol != wantProto || c.Seed != wantSeed {
			t.Errorf("cell %d is %s seed %d, want %s seed %d",
				i, c.Protocol, c.Seed, wantProto, wantSeed)
		}
	}
	for _, a := range res.Aggregates {
		if a.DeliveryPct.Mean <= 0 {
			t.Errorf("%s/%s: empty aggregate", a.Scenario, a.Protocol)
		}
		if a.DeliveryPct.P95 < a.DeliveryPct.P50 {
			t.Errorf("%s/%s: p95 < p50", a.Scenario, a.Protocol)
		}
	}
}

// TestBatchSeedZero: SeedZero starts the grid at the actual seed 0,
// which the BaseSeed zero-sentinel (default 1) cannot express.
func TestBatchSeedZero(t *testing.T) {
	res, err := Run(Config{
		Scenarios: []scenario.Spec{testSpec(5 * time.Second)},
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    2,
		SeedZero:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseSeed != 0 {
		t.Errorf("BaseSeed = %d, want 0", res.BaseSeed)
	}
	for i, c := range res.Cells {
		if c.Seed != int64(i) {
			t.Errorf("cell %d ran seed %d, want %d", i, c.Seed, i)
		}
	}
}

// TestBatchRejectsInvalidSpec: a broken scenario fails the whole batch
// before any cell runs.
func TestBatchRejectsInvalidSpec(t *testing.T) {
	bad := testSpec(10 * time.Second)
	bad.Traffic.Rate = -1
	if _, err := Run(Config{Scenarios: []scenario.Spec{bad}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestFailureScheduleDropsThenRecovers: with the chain's only bridge dead
// for the first 20 s, end-to-end delivery is zero during the outage and
// resumes after the heal — the failure-schedule semantics the
// partition-heal built-in is built on.
func TestFailureScheduleDropsThenRecovers(t *testing.T) {
	const (
		outage  = 20 * time.Second
		horizon = 40 * time.Second
	)
	spec := testSpec(horizon)
	spec.Outages = []scenario.Outage{{Node: 2, From: 0, Until: scenario.Duration(outage)}}

	run := func(s scenario.Spec) []float64 {
		cfg, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 5
		sum := world.New(cfg, protocol.Factory(protocol.AODV, s.Traffic.Rate)).Run()
		return sum.ThroughputSeries // bits/s per 4 s bucket
	}

	// Control: without the outage the chain delivers from the first bucket.
	control := run(testSpec(horizon))
	if control[0] <= 0 {
		t.Fatalf("control run idle in bucket 0: %v", control)
	}

	series := run(spec)
	outBuckets := int(outage / (4 * time.Second))
	for i := 0; i < outBuckets && i < len(series); i++ {
		if series[i] > 0 {
			t.Errorf("bucket %d delivered %.0f bps across a dead bridge", i, series[i])
		}
	}
	healed := 0.0
	// Skip the first post-heal bucket: rediscovery may straddle it.
	for i := outBuckets + 1; i < len(series); i++ {
		healed += series[i]
	}
	if healed <= 0 {
		t.Errorf("no delivery after heal: %v", series)
	}
}
