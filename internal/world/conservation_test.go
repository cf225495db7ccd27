package world_test

import (
	"encoding/binary"
	"testing"
	"time"

	"rica/internal/checkpoint"
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

// TestExportsAgreeInsideAckWindow walks a three-terminal relay through
// two seconds in 100 µs steps and, at every instant, holds the two
// captured sections that name an in-flight data packet to each other:
// every exchange MACS reports is the busy head of its sender's link
// queue in NODE, under the same packet id. Inside the ACK window the
// receiver already owns that packet — at the destination it has been
// delivered and released — so a capture that read the id through the
// queue's stale pointer instead of the by-value copy writes the arena's
// poison. Worlds no longer share packets, so that read is wrong the same
// way on every run and no replay comparison can see it; this one does.
func TestExportsAgreeInsideAckWindow(t *testing.T) {
	cfg := relayConfig(2 * time.Second)
	w := world.New(cfg, protocol.Factory(protocol.AODV, 10))
	w.Start()
	delivered := 0 // instants inside an ACK window whose receiver is the destination
	for at := time.Duration(0); at <= cfg.Duration && !t.Failed(); at += 100 * time.Microsecond {
		w.RunTo(at)
		secs, err := w.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		heads := busyHeads(checkpoint.Find(secs, checkpoint.TagNode))
		for _, x := range exchanges(checkpoint.Find(secs, checkpoint.TagMACs)) {
			if x.handed && x.to == cfg.Flows[0].Dst {
				delivered++
			}
			if head, ok := heads[[2]int{x.from, x.to}]; !ok {
				t.Errorf("t=%v: exchange %d→%d (packet %d) has no busy queue head at its sender", at, x.from, x.to, x.id)
			} else if head != x.id {
				t.Errorf("t=%v: exchange %d→%d carries packet %d, the sender's queue head says %d (handed off: %v)",
					at, x.from, x.to, x.id, head, x.handed)
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

// capReader reads back the little-endian words a checkpoint.Enc wrote.
type capReader []byte

func (r *capReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(*r)
	*r = (*r)[8:]
	return v
}

func (r *capReader) int() int   { return int(r.u64()) }
func (r *capReader) bool() bool { v := (*r)[0] == 1; *r = (*r)[1:]; return v }
func (r *capReader) skip(n int) { *r = (*r)[n:] }

// capturedExchange is what MACS says of one data-plane exchange.
type capturedExchange struct {
	from, to int
	handed   bool
	id       uint64
}

// exchanges reads the data-plane exchanges off a MACS payload, past the
// common channel's active list (from, start, end, jam flag and a packet's
// id, type and size each), its in-flight slots and its deferred slots
// (a slot index and a packet each).
func exchanges(macs []byte) []capturedExchange {
	r := capReader(macs)
	r.skip(8) // the longest airtime
	r.skip(r.int() * (3*8 + 1 + 3*8))
	r.skip(r.int() * 4 * 8)
	r.skip(r.int() * 4 * 8)
	xs := make([]capturedExchange, r.int())
	for k := range xs {
		r.skip(8) // slot
		xs[k].from, xs[k].to = r.int(), r.int()
		r.skip(2 * 8) // tries, class
		xs[k].handed, xs[k].id = r.bool(), r.u64()
		r.skip(8) // size
	}
	return xs
}

// busyHeads reads a NODE payload — the terminal count, then each terminal
// holding a queue or a route as its id, its link queues and its route
// entries (five words and a valid flag each) — into the id of the head
// packet of every busy link queue, keyed by (terminal, next hop).
func busyHeads(node []byte) map[[2]int]uint64 {
	heads := make(map[[2]int]uint64)
	r := capReader(node)
	r.skip(8)
	for len(r) > 0 {
		id := r.int()
		for q := r.int(); q > 0; q-- {
			to, busy, items := r.int(), r.bool(), r.int()
			for k := 0; k < items; k++ {
				if pkt := r.u64(); k == 0 && busy {
					heads[[2]int{id, to}] = pkt
				}
				r.skip(8) // enqueue time
			}
		}
		r.skip(r.int() * (5*8 + 1))
	}
	return heads
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
