package world_test

import (
	"math"
	"testing"
	"time"

	"rica/internal/geom"
	"rica/internal/invariant"
	"rica/internal/network"
	"rica/internal/protocol"
	"rica/internal/timeseries"
	"rica/internal/trace"
	"rica/internal/traffic"
	"rica/internal/world"
)

// seamCells are the two workload shapes the observation seam serves: the
// paper's waypoint cell, and a waypoint epidemic where deliveries feed
// back into the run through the seam's first consumer.
func seamCells() map[string]world.Config {
	paper := world.DefaultConfig(18, 10)
	paper.Duration = 8 * time.Second
	paper.Seed = 3

	gossip := world.DefaultConfig(18, 2)
	gossip.N = 40
	gossip.Field = geom.Field{Width: 850, Height: 850}
	gossip.Flows = []traffic.Flow{} // gossip alone
	gossip.Gossip = &traffic.GossipConfig{Rumors: 2, Rate: 2, Pushes: 6}
	gossip.Duration = 6 * time.Second
	gossip.Seed = 5
	return map[string]world.Config{"paper": paper, "gossip": gossip}
}

// TestObserversLaw holds the observation seam to its two promises over
// every subset of the optional consumers: attaching observers never
// perturbs the run, and every consumer sees every event of each kind
// exactly once.
func TestObserversLaw(t *testing.T) {
	for name, base := range seamCells() {
		t.Run(name, func(t *testing.T) {
			factory := protocol.Factory(protocol.RICA, base.FlowRate)
			bare := world.New(base, factory).Run()
			if bare.Delivered == 0 || bare.ControlDropped == 0 {
				t.Fatalf("cell is idle: %+v", bare)
			}

			for mask := 1; mask < 4; mask++ {
				cfg := base
				if mask&1 != 0 {
					cfg.Trace = trace.NewRecorder(0)
				}
				if mask&2 != 0 {
					cfg.Timeseries = timeseries.NewCollector(time.Second, cfg.Duration)
				}
				got := world.New(cfg, factory).Run()
				if a, b := invariant.Fingerprint(got), invariant.Fingerprint(bare); a != b {
					t.Fatalf("observers %02b perturbed the run:\n got %s\nbare %s", mask, a, b)
				}
				if *got.Obs != *bare.Obs {
					t.Fatalf("observers %02b perturbed obs:\n got %+v\nbare %+v", mask, *got.Obs, *bare.Obs)
				}
				if got.Energy != bare.Energy {
					t.Fatalf("observers %02b perturbed energy: %+v vs %+v", mask, got.Energy, bare.Energy)
				}
				if mask != 3 {
					continue
				}

				dropped := 0
				for _, n := range got.Dropped {
					dropped += n
				}
				want := uint64(got.Generated+got.Delivered+dropped) +
					uint64(got.ControlPackets+got.ControlDropped)
				if total := cfg.Trace.Total(); total != want {
					t.Fatalf("trace saw %d events, want %d (gen %d + del %d + drop %d + ctl %d + ctl-lost %d)",
						total, want, got.Generated, got.Delivered, dropped, got.ControlPackets, got.ControlDropped)
				}

				tl := cfg.Timeseries.Timeline()
				if err := invariant.CheckTimeline(tl); err != nil {
					t.Fatal(err)
				}
				var gen, del, installs int
				var ctl, ctlLost int64
				var overheadBits float64
				drops := map[network.DropReason]int{}
				for _, p := range tl.Points {
					gen += p.Generated
					del += p.Delivered
					ctl += p.ControlPackets
					ctlLost += p.ControlDropped
					overheadBits += p.OverheadKbps * 1000 * tl.IntervalS
					installs += p.RouteInstalls
					drops[network.DropCongestion] += p.DropCongestion
					drops[network.DropExpired] += p.DropExpired
					drops[network.DropNoRoute] += p.DropNoRoute
					drops[network.DropLinkBreak] += p.DropLinkBreak
					drops[network.DropAdversary] += p.DropAdversary
				}
				if gen != got.Generated || del != got.Delivered ||
					ctl != got.ControlPackets || ctlLost != got.ControlDropped {
					t.Fatalf("timeline sums gen/del/ctl/ctl-lost = %d/%d/%d/%d, summary %d/%d/%d/%d",
						gen, del, ctl, ctlLost,
						got.Generated, got.Delivered, got.ControlPackets, got.ControlDropped)
				}
				for r, n := range drops {
					if n != got.Dropped[r] {
						t.Fatalf("timeline drop[%s] = %d, summary %d", r, n, got.Dropped[r])
					}
				}
				// Routing plus ACK bits: the one timeline figure the ACK hook feeds.
				if wantBits := got.OverheadBps * cfg.Duration.Seconds(); math.Abs(overheadBits-wantBits) > 1e-6*wantBits {
					t.Fatalf("timeline overhead = %g bits, summary %g", overheadBits, wantBits)
				}
				// Route churn reaches the timeline with a trace attached as well.
				if installs == 0 {
					t.Fatal("no route installs reached the timeline")
				}
			}
		})
	}
}
