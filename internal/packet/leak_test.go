package packet_test

import (
	"testing"
	"time"

	"rica"
)

// TestNoPooledPacketLeaksAcrossCatalog runs scenario-catalog cells and
// asserts each world's arena has every packet back: what a run got was
// released by delivery, a recorded drop, MAC recycling, or the
// end-of-run drain. A residue is a genuine leak — some subsystem parked
// a packet past the horizon without implementing drain. The count is the
// world's own, so the cells run in parallel.
func TestNoPooledPacketLeaksAcrossCatalog(t *testing.T) {
	names := rica.ScenarioNames()
	if testing.Short() {
		names = []string{"chain-10", "partition-heal", "churn-heavy"}
	}
	for _, name := range names {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Shorten the horizon: leak detection needs the full lifecycle
		// (generate, forward, query, drain), not the full duration — the
		// root package's TestForgettingIsExact holds the same law at every
		// scenario's own horizon.
		d := 4 * time.Second
		if name == "metro-500" || name == "gossip-200" {
			d = 2 * time.Second
		}
		for _, p := range rica.AllProtocols() {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				s, err := rica.Run(rica.ScenarioRun{Scenario: spec, Protocol: p, MaxDuration: d}, rica.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if s.PacketsLeaked != 0 {
					t.Fatalf("run leaked %d packets", s.PacketsLeaked)
				}
			})
		}
	}
}
