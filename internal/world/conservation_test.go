package world_test

import (
	"testing"
	"time"

	"rica/internal/invariant"
	"rica/internal/protocol"
	"rica/internal/traffic"
	"rica/internal/world"
)

// TestConservationInsideAckWindow replays the configuration that first
// broke packet conservation: an AODV run whose 3 s horizon lands inside
// a data-plane ACK window, leaving the sender's queue head aliasing a
// packet the receiver already owns. Before the handed-off drain guard
// the ledger read delivered + dropped + in-flight = generated + 1 (and
// the drain double-freed the aliased packet into the pool).
func TestConservationInsideAckWindow(t *testing.T) {
	cfg := world.DefaultConfig(36, 10)
	cfg.Duration = 3 * time.Second
	cfg.Seed = 1
	s := world.New(cfg, protocol.Factory(protocol.AODV, 10)).Run()
	if err := invariant.CheckSummary(s); err != nil {
		t.Fatalf("conservation broken at an ACK-window horizon: %v", err)
	}
	if s.Obs.DrainData == 0 {
		t.Skip("horizon no longer lands with packets in flight; the scenario lost its bite")
	}
}

// TestCatalogSummariesSatisfyInvariants sweeps every adversarial builtin
// shape at the world layer: gossip epidemic, jammers, droppers, churn
// outages — each run must close its conservation and ledger books.
func TestCatalogSummariesSatisfyInvariants(t *testing.T) {
	cases := map[string]func() world.Config{
		"gossip": func() world.Config {
			cfg := world.DefaultConfig(18, 4)
			cfg.N = 12
			cfg.Flows = []traffic.Flow{} // gossip supplies the workload
			cfg.Gossip = &traffic.GossipConfig{Rumors: 2, Rate: 4, Pushes: 3}
			cfg.Duration = 4 * time.Second
			return cfg
		},
		"jammer": func() world.Config {
			cfg := relayConfig(4 * time.Second)
			cfg.Jammers = []world.Jammer{{Node: 1, Rate: 30, Size: 512}}
			return cfg
		},
		"dropper": func() world.Config {
			cfg := relayConfig(4 * time.Second)
			cfg.Droppers = []world.Dropper{{Node: 1, Prob: 0.5}}
			return cfg
		},
		"churn": func() world.Config {
			cfg := relayConfig(6 * time.Second)
			cfg.Outages = []world.Outage{
				{Node: 1, From: time.Second, Until: 2 * time.Second},
				{Node: 1, From: 1500 * time.Millisecond, Until: 3 * time.Second},
			}
			return cfg
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for _, p := range protocol.AllProtocols() {
				s := world.New(build(), protocol.Factory(p, 10)).Run()
				if err := invariant.CheckSummary(s); err != nil {
					t.Errorf("%s/%s: %v", name, p, err)
				}
			}
		})
	}
}
