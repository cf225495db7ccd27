package experiment

import (
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/metrics"
	"rica/internal/protocol"
	"rica/internal/traffic"
	"rica/internal/world"
)

// scriptedRun builds a static scripted topology and runs one protocol.
func scriptedRun(t *testing.T, p protocol.Protocol, positions []geom.Point, flows []traffic.Flow, dur time.Duration) metrics.Summary {
	t.Helper()
	cfg := world.DefaultConfig(0, 10)
	cfg.StaticPositions = positions
	cfg.Flows = flows
	cfg.Duration = dur
	cfg.Seed = 3
	return world.New(cfg, protocol.Factory(p, 10)).Run()
}

// TestPartitionIsolation injects a network partition: two 3-terminal
// islands 600 m apart. Flows within an island must deliver; flows across
// the gap must drop every packet without crashing or wedging any
// protocol.
func TestPartitionIsolation(t *testing.T) {
	positions := []geom.Point{
		// Island A
		{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 75, Y: 120},
		// Island B, far out of radio range of island A
		{X: 900, Y: 900}, {X: 900, Y: 750}, {X: 780, Y: 870},
	}
	flows := []traffic.Flow{
		{Src: 0, Dst: 2, Rate: 10}, // intra-island A
		{Src: 3, Dst: 5, Rate: 10}, // intra-island B
		{Src: 0, Dst: 4, Rate: 10}, // across the partition: hopeless
	}
	for _, p := range protocol.AllProtocols() {
		s := scriptedRun(t, p, positions, flows, 20*time.Second)
		var crossDelivered, intraRatioSum float64
		intraFlows := 0
		for _, f := range s.PerFlow {
			switch {
			case f.Src == 0 && f.Dst == 4:
				crossDelivered = float64(f.Delivered)
			default:
				intraRatioSum += f.DeliveryRatio()
				intraFlows++
			}
		}
		if crossDelivered != 0 {
			t.Errorf("%v: delivered %v packets across a partition", p, crossDelivered)
		}
		if intraFlows != 2 || intraRatioSum/2 < 0.9 {
			t.Errorf("%v: intra-island delivery %.2f, want > 0.9 (flows %d)",
				p, intraRatioSum/2, intraFlows)
		}
		// Conservation: everything generated is delivered, dropped, or in
		// flight at the horizon.
		if s.Delivered+s.DropTotal() > s.Generated {
			t.Errorf("%v: conservation violated", p)
		}
	}
}

// TestChainTopologyAllHopsUsed verifies multi-hop relaying on a 4-hop
// chain for every protocol: the endpoints are far outside mutual range,
// so delivery proves the intermediates forwarded.
func TestChainTopologyAllHopsUsed(t *testing.T) {
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0}, {X: 800, Y: 0},
	}
	flows := []traffic.Flow{{Src: 0, Dst: 4, Rate: 10}}
	for _, p := range protocol.AllProtocols() {
		s := scriptedRun(t, p, positions, flows, 20*time.Second)
		if s.DeliveryRatio < 0.75 {
			t.Errorf("%v: chain delivery %.2f, want > 0.75 (drops %v)",
				p, s.DeliveryRatio, s.Dropped)
		}
		if s.Delivered > 0 && s.AvgHops < 3.9 {
			t.Errorf("%v: avg hops %.2f on a 4-hop chain", p, s.AvgHops)
		}
	}
}

// TestIsolatedSourceDegradesGracefully: a source with no neighbours at
// all must drop its offered load as no-route without stalling the run.
func TestIsolatedSourceDegradesGracefully(t *testing.T) {
	positions := []geom.Point{
		{X: 0, Y: 0},                       // isolated source
		{X: 900, Y: 900}, {X: 750, Y: 900}, // a connected pair elsewhere
	}
	flows := []traffic.Flow{
		{Src: 0, Dst: 2, Rate: 20},
		{Src: 1, Dst: 2, Rate: 10},
	}
	for _, p := range protocol.AllProtocols() {
		s := scriptedRun(t, p, positions, flows, 15*time.Second)
		for _, f := range s.PerFlow {
			if f.Src == 0 && f.Delivered != 0 {
				t.Errorf("%v: isolated source delivered %d packets", p, f.Delivered)
			}
			if f.Src == 1 && f.DeliveryRatio() < 0.9 {
				t.Errorf("%v: healthy flow starved at %.2f by the isolated one", p, f.DeliveryRatio())
			}
		}
	}
}

// TestSingleSharedRelayCongestion: two flows forced through one relay
// terminal. The relay's buffers are the bottleneck; delivery must stay
// sane and all losses must be accounted as congestion/expiry, not
// mysterious vanishing.
func TestSingleSharedRelayCongestion(t *testing.T) {
	positions := []geom.Point{
		{X: 0, Y: 0},     // source A
		{X: 0, Y: 200},   // source B
		{X: 200, Y: 100}, // the only relay in range of everyone
		{X: 400, Y: 0},   // sink A
		{X: 400, Y: 200}, // sink B
	}
	flows := []traffic.Flow{
		{Src: 0, Dst: 3, Rate: 25},
		{Src: 1, Dst: 4, Rate: 25},
	}
	for _, p := range protocol.AllProtocols() {
		s := scriptedRun(t, p, positions, flows, 20*time.Second)
		// The offered 50 packets/s exceed the relay's ~25-30 packet/s
		// service rate, so roughly half the load must die as congestion —
		// but not much more than that.
		if s.DeliveryRatio < 0.25 {
			t.Errorf("%v: shared-relay delivery %.2f too low (drops %v)", p, s.DeliveryRatio, s.Dropped)
		}
		slack := s.Generated - s.Delivered - s.DropTotal()
		if slack < 0 || float64(slack) > 0.1*float64(s.Generated) {
			t.Errorf("%v: %d packets unaccounted", p, slack)
		}
	}
}
