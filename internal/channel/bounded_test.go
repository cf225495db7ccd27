package channel_test

import (
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestGeneratorsFollowPairsInPlay holds the claim that parking bounds
// link memory by the pairs in radio contact rather than by every pair
// that ever met. After the paper's cell runs 100 s under RICA, the links
// whose stream holds its 607-word vector must stay under maxHeldShare of
// the links created. Without parking every link holds one, so the share
// reads 1. With it, seed 1 reads 344 of 780 (0.44).
func TestGeneratorsFollowPairsInPlay(t *testing.T) {
	const (
		horizon      = 100 * time.Second
		maxHeldShare = 0.65
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
	held, links := w.Model.HeldVectors(), w.Model.LinkCount()
	if share := float64(held) / float64(links); share > maxHeldShare {
		t.Errorf("%d of %d links hold a vector (%.2f), want at most %.2f of them", held, links, share, maxHeldShare)
	}
	t.Logf("%d of %d links hold a vector", held, links)
}
