package world_test

import (
	"math"
	"testing"
	"time"

	"rica/internal/obs"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestGridRebuildsFollowTheSpeedBound holds what the compiler cannot see
// about a world's terminals: that the channel layer finds them to be
// Movers. A terminal handed over as a plain Positioner changes no
// result, only how often the spatial grid is rebuilt, so the rebuild
// count is the witness. A static lattice builds its grid once and keeps
// it forever. On the paper's field consecutive builds are at least one
// drift budget's travel apart — s = Range/16 metres at the largest
// SpeedLimit v — so a horizon H sees at most ⌈H·v/s⌉ + 1 of them.
func TestGridRebuildsFollowTheSpeedBound(t *testing.T) {
	const horizon = 20 * time.Second
	rebuilds := func(cfg world.Config) (uint64, *world.World) {
		cfg.Duration = horizon
		w := world.New(cfg, protocol.Factory(protocol.RICA, cfg.FlowRate))
		w.Run()
		return w.Obs.Counter(obs.CGridRebuilds), w
	}

	spec, err := scenario.ByName("grid-8x8")
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rebuilds(lattice); got != 1 {
		t.Errorf("grid-8x8: %d grid rebuilds in %v, want exactly 1", got, horizon)
	}

	paper := world.DefaultConfig(36, 10)
	got, w := rebuilds(paper)
	v := 0.0
	for _, n := range w.Mobility {
		v = math.Max(v, n.SpeedLimit())
	}
	budget := paper.Channel.Range / 16
	bound := uint64(math.Ceil(horizon.Seconds()*v/budget)) + 1
	t.Logf("paper field: %d grid rebuilds in %v, bound %d", got, horizon, bound)
	if got < 2 || got > bound {
		t.Errorf("paper field: %d grid rebuilds in %v, want 2..%d (v = %.2f m/s, budget %.4g m)",
			got, horizon, bound, v, budget)
	}
}
