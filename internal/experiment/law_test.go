package experiment

import (
	"testing"
	"time"

	"rica/internal/batch"
	"rica/internal/invariant"
	"rica/internal/metrics"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestFigureCellIsBatchCell is the law the figure path stands on: a
// figure's trial is the batch engine's cell over the point's spec, and
// both are the world the paper's §III.A describes. The last leg builds
// that world from world.DefaultConfig by hand — the reference the spec
// builder is held to, so FieldSpec drifting from the paper's field (or
// the grid reshaping handing a trial the wrong cell) moves a fingerprint
// here before it moves a figure.
func TestFigureCellIsBatchCell(t *testing.T) {
	const load, horizon = 10, 8 * time.Second
	speeds := []float64{0, 36, 72}
	if testing.Short() {
		speeds = []float64{36}
	}
	seeds := []int64{1, 2}
	sweep := Sweep(load, Options{Speeds: speeds, Trials: len(seeds), Duration: horizon, BaseSeed: seeds[0]})

	same := func(what string, got, want metrics.Summary) {
		t.Helper()
		if g, w := invariant.Fingerprint(got), invariant.Fingerprint(want); g != w || got.Events != want.Events {
			t.Errorf("%s:\n got %s events=%d\nwant %s events=%d", what, g, got.Events, w, want.Events)
		}
	}
	for _, p := range protocol.AllProtocols() {
		for i, speed := range speeds {
			spec, err := FieldSpec(speed, load, horizon)
			if err != nil {
				t.Fatal(err)
			}
			for ti, seed := range seeds {
				trial := sweep.Cells[p][i].Trials[ti]

				res, err := batch.Run(batch.Config{
					Scenarios: []scenario.Spec{spec},
					Protocols: []protocol.Protocol{p},
					Trials:    1, BaseSeed: seed, Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				same(spec.Name+"/"+p.String()+": figure trial vs 1×1×1 batch", trial, *res.Cells[0].Summary)

				cfg := world.DefaultConfig(speed, load)
				cfg.Duration, cfg.Seed = horizon, seed
				same(spec.Name+"/"+p.String()+": figure trial vs DefaultConfig world",
					trial, world.New(cfg, protocol.Factory(p, load)).Run())
			}
		}
	}
}

// TestInvalidPointPanics: the figure functions have no error to return,
// so a point the spec validator refuses stops the figure with the
// validator's text instead of running a meaningless field.
func TestInvalidPointPanics(t *testing.T) {
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("Sweep at -5 km/h: recovered %v, want the validator's error", r)
		}
		if _, want := FieldSpec(-5, 10, time.Second); err.Error() != want.Error() {
			t.Fatalf("panic %q, want %q", err, want)
		}
	}()
	Sweep(10, Options{Speeds: []float64{36, -5}, Trials: 1, Duration: time.Second})
}
