package rica_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rica"
	"rica/internal/checkpoint"
	"rica/internal/network"
	"rica/internal/protocol"
	"rica/internal/world"
)

// catalogHorizon picks a truncated horizon per scenario so the full
// catalog × protocol grid stays CI-sized; the big fields get the
// shortest leash.
func catalogHorizon(name string) time.Duration {
	switch name {
	case "metro-500", "gossip-200":
		return 2 * time.Second
	default:
		return 4 * time.Second
	}
}

// TestInvariantCatalog holds every built-in scenario × protocol cell to
// the simulation invariants: the run must close its conservation and
// ledger books, hand every packet back to its world's arena, and replay
// bit-identically.
func TestInvariantCatalog(t *testing.T) {
	names := rica.ScenarioNames()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rica.AllProtocols() {
			spec, p := spec, p
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				run := func() rica.Summary {
					return mustRun(t, rica.ScenarioRun{
						Scenario: spec, Protocol: p, Seed: 3,
						MaxDuration: catalogHorizon(spec.Name),
					}, rica.RunOptions{})
				}
				first := run()
				if err := rica.CheckInvariants(first); err != nil {
					t.Errorf("run: %v", err)
				}
				want := rica.Fingerprint(first)
				if got := rica.Fingerprint(run()); got != want {
					t.Errorf("replay diverged\n got: %s\nwant: %s", got, want)
				}

				// Timeline monotonicity: re-run the cell as a 1×1×1 batch
				// with interval telemetry and hold the emitted timeline to
				// the cumulative-counters-never-decrease laws.
				truncated := spec
				truncated.Duration = rica.ScenarioDuration(catalogHorizon(spec.Name))
				sink := &rica.MemoryTimelineSink{}
				if _, err := rica.RunBatch(rica.BatchConfig{
					Scenarios: []rica.Scenario{truncated},
					Protocols: []rica.Protocol{p},
					Trials:    1,
					BaseSeed:  3,
					Telemetry: &rica.BatchTelemetry{Interval: time.Second, Sink: sink},
				}); err != nil {
					t.Fatalf("timeline batch: %v", err)
				}
				if n := len(sink.Runs); n != 1 {
					t.Fatalf("timeline batch emitted %d timelines, want 1", n)
				}
				tl := sink.Runs[0].Timeline
				if err := rica.CheckTimelineInvariants(tl); err != nil {
					t.Errorf("timeline laws: %v", err)
				}
				// The timeline accounts for every drop: each reason's column
				// sums to the summary's count for the same cell.
				cols := map[network.DropReason]int{}
				for _, pt := range tl.Points {
					cols[network.DropCongestion] += pt.DropCongestion
					cols[network.DropExpired] += pt.DropExpired
					cols[network.DropNoRoute] += pt.DropNoRoute
					cols[network.DropLinkBreak] += pt.DropLinkBreak
					cols[network.DropAdversary] += pt.DropAdversary
				}
				if len(cols) != network.NumDropReasons {
					t.Fatalf("test sums %d drop columns, the enum has %d reasons", len(cols), network.NumDropReasons)
				}
				for r, n := range cols {
					if n != first.Dropped[r] {
						t.Errorf("timeline drop[%s] sums to %d, summary counts %d", r, n, first.Dropped[r])
					}
				}
				if name == "byzantine-drop" && p == rica.ProtocolRICA && first.Dropped[network.DropAdversary] == 0 {
					t.Error("byzantine-drop/RICA recorded no adversary drops; the fifth column is unexercised")
				}
			})
		}
	}
}

// TestForgettingIsExact is the exactness law of the bounded flood
// history: a terminal forgets a flood instance HistoryLifetime after its
// last touch, and over the scenario catalog × five protocols at each
// scenario's own horizon it never looks one up again. The audit keeps an
// unbounded shadow of every key beside each History (and of every
// instance a destination answered, beside Core's gather sweep) and counts
// lookups that missed and would have hit; it is wired through
// world.Config.Node only, so no CLI flag or RunOptions field reaches it.
// Zero misses means the run is, event for event, the run of a history
// that never forgets — which is why no golden moved when the history
// started forgetting.
func TestForgettingIsExact(t *testing.T) {
	names := rica.ScenarioNames()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rica.AllProtocols() {
			spec, p := spec, p
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				wcfg, err := spec.Compile()
				if err != nil {
					t.Fatal(err)
				}
				wcfg.Seed = 3
				var misses uint64
				wcfg.Node.ForgetAudit = &misses
				s := world.New(wcfg, protocol.Factory(p, spec.Traffic.Rate)).Run()
				if misses != 0 {
					t.Errorf("%d lookups missed a flood record the history had forgotten", misses)
				}
				if s.PacketsLeaked != 0 {
					t.Errorf("%d packets never went back to the arena", s.PacketsLeaked)
				}
				if s.Obs.FloodSuppressed == 0 && wcfg.Duration > 6*time.Second {
					t.Error("no flood copy was ever suppressed: the history is unexercised")
				}
			})
		}
	}
}

// TestConcurrentWorldsMatchSequential is the law that worlds share
// nothing: for every catalog scenario × protocol, four worlds started on
// four goroutines end with the fingerprints and the eight state-section
// digests of the same four seeds run one after another, and every one of
// the eight summaries passes CheckInvariants — the zero-leak law
// included, which is per world and so holds while the others run. Shared
// mutable state between worlds (a package-level free list, a cache, a
// counter) shows here as a diverging digest, a leak count, or — the CI
// job runs this under -race — a data race.
func TestConcurrentWorldsMatchSequential(t *testing.T) {
	const worlds = 4
	names := rica.ScenarioNames()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rica.AllProtocols() {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				// one runs a world to the horizon and returns what it was
				// there: the state digests, then the summary's fingerprint.
				one := func(seed int64) (string, error) {
					wcfg, err := spec.Compile()
					if err != nil {
						return "", err
					}
					wcfg.Seed = seed
					wcfg.Duration = min(wcfg.Duration, catalogHorizon(name))
					w := world.New(wcfg, protocol.Factory(p, spec.Traffic.Rate))
					w.Start()
					w.RunTo(wcfg.Duration)
					secs, err := w.Capture(checkpoint.NewDigestEnc())
					if err != nil {
						return "", err
					}
					s := w.Finish()
					if err := rica.CheckInvariants(s); err != nil {
						return "", err
					}
					witness := rica.Fingerprint(s)
					for _, sec := range secs {
						witness += fmt.Sprintf(" %s=%x", sec.Tag, sec.Payload)
					}
					return witness, nil
				}
				var want, got [worlds]string
				for i := range want {
					var err error
					if want[i], err = one(int64(i + 1)); err != nil {
						t.Fatalf("sequential world, seed %d: %v", i+1, err)
					}
				}
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var err error
						if got[i], err = one(int64(i + 1)); err != nil {
							t.Errorf("concurrent world, seed %d: %v", i+1, err)
						}
					}()
				}
				wg.Wait()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("seed %d: a world run beside three others diverged from the same world run alone\n got: %s\nwant: %s",
							i+1, got[i], want[i])
					}
				}
			})
		}
	}
}
