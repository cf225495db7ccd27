package linkstate_test

import (
	"testing"
	"time"

	"rica/internal/batch"
	"rica/internal/metrics"
	"rica/internal/network"
	"rica/internal/protocol"
	"rica/internal/routing/linkstate"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/world"
)

func lsFactory(env network.Env, w *world.World, _ int) network.Agent {
	return linkstate.New(env, linkstate.DefaultConfig(), w.BootTopology())
}

func run(t *testing.T, speedKmh, rate float64, dur time.Duration, seed int64) metrics.Summary {
	t.Helper()
	cfg := world.DefaultConfig(speedKmh, rate)
	cfg.Duration = dur
	cfg.Seed = seed
	return world.New(cfg, lsFactory).Run()
}

// TestStaticNetworkWorksWell reproduces the paper's observation that with
// an installed accurate topology and no motion, link state performs fine
// (its delay can even be the lowest).
func TestStaticNetworkWorksWell(t *testing.T) {
	s := run(t, 0, 10, 30*time.Second, 1)
	if s.DeliveryRatio < 0.6 {
		t.Fatalf("static delivery = %.3f (drops %v), want > 0.6", s.DeliveryRatio, s.Dropped)
	}
}

// TestMobilityDegradesSharply is the collapse the paper reports: at high
// speed the flooded updates cannot keep views consistent and delivery
// falls well below the static case.
func TestMobilityDegradesSharply(t *testing.T) {
	static := run(t, 0, 10, 30*time.Second, 2)
	fast := run(t, 72, 10, 30*time.Second, 2)
	if fast.DeliveryRatio >= static.DeliveryRatio {
		t.Fatalf("mobility did not degrade link state: %.3f static vs %.3f at 72 km/h",
			static.DeliveryRatio, fast.DeliveryRatio)
	}
	if fast.DeliveryRatio > 0.85*static.DeliveryRatio {
		t.Fatalf("degradation too mild: %.3f → %.3f", static.DeliveryRatio, fast.DeliveryRatio)
	}
}

// TestRoutingLoopsForm: stale views forward packets in circles. A 50-node
// network on a 1000 m field with 250 m radios has a diameter under ~8
// hops; any packet traversing far more than that has looped (paper Figure
// 5b's "highest number of hops" pathology).
func TestRoutingLoopsForm(t *testing.T) {
	static := run(t, 0, 10, 30*time.Second, 3)
	fast := run(t, 72, 10, 30*time.Second, 3)
	if fast.MaxHops < 15 {
		t.Fatalf("max hops at 72 km/h = %d; no packet ever looped", fast.MaxHops)
	}
	if fast.MaxHops <= static.MaxHops/2 {
		t.Fatalf("loops not worse under mobility: static max %d vs mobile max %d",
			static.MaxHops, fast.MaxHops)
	}
}

// TestFloodOverheadDominates: the paper's Figure 4 shows link state
// overhead far above every on-demand protocol once terminals move.
func TestFloodOverheadDominates(t *testing.T) {
	s := run(t, 40, 10, 30*time.Second, 4)
	if s.OverheadBps < 50_000 {
		t.Fatalf("link-state overhead = %.0f bps, implausibly low for LSA flooding", s.OverheadBps)
	}
	if s.ControlDropped == 0 {
		t.Fatal("no control packets lost to congestion; the common channel should be saturated")
	}
}

func TestHighestLinkThroughput(t *testing.T) {
	// Dijkstra over CSI costs picks high-class links (paper Figure 5a puts
	// link state top). Verify the per-hop link quality is at least high in
	// absolute terms even when mobile.
	s := run(t, 40, 10, 30*time.Second, 5)
	if s.AvgLinkThroughputBps < 120_000 {
		t.Fatalf("link-state avg link throughput %.0f too low; Dijkstra not using CSI costs?",
			s.AvgLinkThroughputBps)
	}
}

func TestDeterministic(t *testing.T) {
	a := run(t, 30, 10, 15*time.Second, 7)
	b := run(t, 30, 10, 15*time.Second, 7)
	if a.Delivered != b.Delivered || a.AvgDelay != b.AvgDelay || a.OverheadBps != b.OverheadBps {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestCountersArePinned holds "what is counted is unchanged" by more than
// the goldens: three catalog scenarios under link state for 20 s, seed 1,
// must dispatch the events and count the shortest-path recomputes and
// route installs they did when every recompute built the whole tree (the
// numbers were taken at PR 21's tree). A recompute is counted when a
// packet first consults a view an LSA, beacon or sweep touched, and
// reported once more as a route install to the timeline.
func TestCountersArePinned(t *testing.T) {
	want := []struct {
		scenario                    string
		events, recomputes, install uint64
	}{
		{"dense-urban", 200193, 6524, 6524},
		{"grid-8x8", 64512, 4240, 4240},
		{"churn-storm", 74175, 2180, 2180},
	}
	var cfg batch.Config
	for _, w := range want {
		spec, err := scenario.ByName(w.scenario)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = scenario.Duration(20 * time.Second)
		cfg.Scenarios = append(cfg.Scenarios, spec)
	}
	var sink timeseries.MemorySink
	cfg.Protocols = []protocol.Protocol{protocol.LinkState}
	cfg.Trials = 1
	cfg.Telemetry = &batch.Telemetry{Interval: time.Second, Sink: &sink}
	res, err := batch.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(want) || len(sink.Runs) != len(want) {
		t.Fatalf("%d cells and %d timelines for %d scenarios", len(res.Cells), len(sink.Runs), len(want))
	}
	for i, w := range want {
		cell := res.Cells[i]
		var installs uint64
		for _, p := range sink.Runs[i].Timeline.Points {
			installs += uint64(p.RouteInstalls)
		}
		got := [3]uint64{cell.Obs.EventsDispatched, cell.Obs.SPTRecomputes, installs}
		if pinned := [3]uint64{w.events, w.recomputes, w.install}; got != pinned {
			t.Errorf("%s: events_dispatched, route_spt_recomputes, route installs = %v, pinned %v", w.scenario, got, pinned)
		}
	}
}
