package world_test

import (
	"testing"
	"time"

	"rica/internal/invariant"
	"rica/internal/network"
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

// TestExportsAgreeInsideAckWindow walks a three-terminal relay through
// two seconds in 100 µs steps and, at every instant, holds the two
// checkpoint exports that name an in-flight data packet to each other:
// every exchange the data plane reports is the busy head of its sender's
// link queue, under the same packet id. Inside the ACK window the
// receiver already owns that packet — at the destination it has been
// delivered and released — so an export that read the id through the
// queue's stale pointer instead of the by-value copy reports the arena's
// poison. Worlds no longer share packets, so that read is wrong the same
// way on every run and no replay comparison can see it; this one does.
func TestExportsAgreeInsideAckWindow(t *testing.T) {
	cfg := relayConfig(2 * time.Second)
	w := world.New(cfg, protocol.Factory(protocol.AODV, 10))
	w.Start()
	delivered := 0 // instants inside an ACK window whose receiver is the destination
	for at := time.Duration(0); at <= cfg.Duration && !t.Failed(); at += 100 * time.Microsecond {
		w.RunTo(at)
		for _, x := range w.Data.ExportExchanges() {
			if x.Handed && x.To == cfg.Flows[0].Dst {
				delivered++
			}
			var head *network.QueuedPacket
			for _, q := range w.Nodes[x.From].ExportQueues() {
				if q.To == x.To && q.Busy && len(q.Items) > 0 {
					head = &q.Items[0]
				}
			}
			if head == nil {
				t.Errorf("t=%v: exchange %d→%d (packet %d) has no busy queue head at its sender", at, x.From, x.To, x.PktID)
			} else if head.PktID != x.PktID {
				t.Errorf("t=%v: exchange %d→%d carries packet %d, the sender's queue head says %d (handed off: %v)",
					at, x.From, x.To, x.PktID, head.PktID, x.Handed)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no step landed inside a delivered packet's ACK window; the walk lost its bite")
	}
	if err := invariant.CheckSummary(w.Finish()); err != nil {
		t.Fatal(err)
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
