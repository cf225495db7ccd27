package channel_test

import (
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/sim"
	"rica/internal/world"
)

// TestGeneratorsFollowPairsInPlay holds the claim that parking bounds
// link memory by the pairs in radio contact rather than by every pair
// that ever met. After the paper's cell runs 100 s under RICA, the
// generator records the model has allocated — in use and on its free
// list — must stay under maxRecordShare of the links created. Without
// parking every link holds one, so the share reads 1. With it, seed 1
// reads 375 of 780 (0.48), seeds 2–4 0.52–0.56, and the share falls with
// the horizon (441 of 1,176 at the paper's 500 s).
func TestGeneratorsFollowPairsInPlay(t *testing.T) {
	if !sim.NewStreams(0).CanPark() {
		t.Skip("replica unverified: streams are never parked")
	}
	const (
		horizon        = 100 * time.Second
		maxRecordShare = 0.65
	)
	spec, err := scenario.ByName("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	cfg.Duration = horizon
	w := world.New(cfg, protocol.Factory(protocol.RICA, spec.Traffic.Rate))
	w.Start()
	w.RunTo(horizon)
	recs, links := w.Model.GeneratorRecords(), w.Model.LinkCount()
	if share := float64(recs) / float64(links); share > maxRecordShare {
		t.Errorf("%d generator records for %d links (%.2f), want at most %.2f of them", recs, links, share, maxRecordShare)
	}
}
