package rica_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rica"
	"rica/internal/checkpoint"
	"rica/internal/network"
	"rica/internal/protocol"
	"rica/internal/routing"
	"rica/internal/timeseries"
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

// forgetHorizon caps the exactness law's runs at five discovery rounds,
// the unit HistoryLifetime is pinned to, so a history rotates its
// generations five times; a lifetime edited on its own leaves the cap
// where it is. With the lifetime cut to 200 ms the audit reads non-zero
// on the same 13 cells from 15 s to 24 s (docs/TESTING.md).
const forgetHorizon = 5 * routing.PendingLifetime

// catalogNames is what the catalog laws sweep: the whole catalog, or
// under -short three scenarios on which a shortened history lifetime
// shows in the exactness law.
func catalogNames() []string {
	if testing.Short() {
		return []string{"byzantine-drop", "churn-heavy", "dense-urban"}
	}
	return rica.ScenarioNames()
}

// forEachCell runs law as the parallel subtest "scenario/protocol" of
// every swept catalog cell.
func forEachCell(t *testing.T, law func(t *testing.T, spec rica.Scenario, p rica.Protocol)) {
	for _, name := range catalogNames() {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rica.AllProtocols() {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				law(t, spec, p)
			})
		}
	}
}

// sweptWorld is what one world of the catalog sweep ended with.
type sweptWorld struct {
	s        rica.Summary
	witness  string // the fingerprint, then the eight state-section digests
	err      error
	timeline rica.Timeline // 1 s buckets, when the world carried a collector
}

// sweptCell is one catalog cell at catalogHorizon: seeds 1–4 run one
// after another, then the same four on four goroutines at once. The
// sequential seed-3 world also carries a timeline collector, so a
// collector that moved its run shows as a concurrent world diverging.
type sweptCell struct{ sequential, concurrent [4]sweptWorld }

var sweeps sync.Map // "scenario/protocol" → func() *sweptCell

// sweep returns the cell's worlds, simulating them on the first call
// only: TestInvariantCatalog and TestConcurrentWorldsMatchSequential read
// the same eight.
func sweep(spec rica.Scenario, p rica.Protocol) *sweptCell {
	once, _ := sweeps.LoadOrStore(spec.Name+"/"+p.String(), sync.OnceValue(func() *sweptCell {
		c := new(sweptCell)
		for i := range c.sequential {
			c.sequential[i] = runSwept(spec, p, int64(i+1), i == 2)
		}
		var wg sync.WaitGroup
		for i := range c.concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.concurrent[i] = runSwept(spec, p, int64(i+1), false)
			}()
		}
		wg.Wait()
		return c
	}))
	return once.(func() *sweptCell)()
}

// runSwept runs one world of the cell to its catalog horizon and
// captures its state digests there, collecting its timeline on the way
// when asked to.
func runSwept(spec rica.Scenario, p rica.Protocol, seed int64, timeline bool) sweptWorld {
	wcfg, err := spec.Compile()
	if err != nil {
		return sweptWorld{err: err}
	}
	wcfg.Seed = seed
	wcfg.Duration = min(wcfg.Duration, catalogHorizon(spec.Name))
	if timeline {
		wcfg.Timeseries = timeseries.NewCollector(time.Second, wcfg.Duration)
	}
	w := world.New(wcfg, protocol.Factory(p, spec.Traffic.Rate))
	w.Start()
	w.RunTo(wcfg.Duration)
	secs, err := w.Capture(checkpoint.NewDigestEnc())
	sw := sweptWorld{s: w.Finish(), err: err}
	sw.witness = rica.Fingerprint(sw.s)
	for _, sec := range secs {
		sw.witness += fmt.Sprintf(" %s=%x", sec.Tag, sec.Payload)
	}
	if timeline {
		sw.timeline = wcfg.Timeseries.Timeline()
	}
	return sw
}

// TestInvariantCatalog holds every built-in scenario × protocol cell to
// the simulation invariants, read off the sweep's seed-3 worlds: the run
// must close its conservation and ledger books, hand every packet back to
// its world's arena, replay bit-identically (its twin is the concurrent
// seed-3 world), and emit a timeline that obeys the cumulative laws and
// accounts for every drop the summary counts.
func TestInvariantCatalog(t *testing.T) {
	forEachCell(t, func(t *testing.T, spec rica.Scenario, p rica.Protocol) {
		c := sweep(spec, p)
		run, twin, tl := c.sequential[2].s, c.concurrent[2].s, c.sequential[2].timeline
		if err := errors.Join(c.sequential[2].err, rica.CheckInvariants(run)); err != nil {
			t.Errorf("run: %v", err)
		}
		if got, want := rica.Fingerprint(twin), rica.Fingerprint(run); got != want {
			t.Errorf("replay diverged\n got: %s\nwant: %s", got, want)
		}
		if err := rica.CheckTimelineInvariants(tl); err != nil {
			t.Errorf("timeline laws: %v", err)
		}
		// Each reason's column sums to the summary's count for the run.
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
			if n != run.Dropped[r] {
				t.Errorf("timeline drop[%s] sums to %d, summary counts %d", r, n, run.Dropped[r])
			}
		}
		if spec.Name == "byzantine-drop" && p == rica.ProtocolRICA && run.Dropped[network.DropAdversary] == 0 {
			t.Error("byzantine-drop/RICA recorded no adversary drops; the fifth column is unexercised")
		}
	})
}

// TestForgettingIsExact is the exactness law of the bounded flood
// history: a terminal forgets a flood instance HistoryLifetime after its
// last touch, and over the catalog × five protocols, each run to
// forgetHorizon or its own shorter horizon, it never looks one up again.
// The audit (wired through world.Config.Node only) keeps an unbounded
// shadow of every key beside each History and of every instance a
// destination answered beside Core's gather sweep, and counts lookups
// that missed and would have hit. Zero misses means the run is, event
// for event, the run of a history that never forgets.
func TestForgettingIsExact(t *testing.T) {
	forEachCell(t, func(t *testing.T, spec rica.Scenario, p rica.Protocol) {
		wcfg, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		wcfg.Seed = 3
		wcfg.Duration = min(wcfg.Duration, forgetHorizon)
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

// TestConcurrentWorldsMatchSequential is the law that worlds share
// nothing: for every catalog cell, the sweep's four worlds run on four
// goroutines end with the fingerprints and the eight state-section
// digests of the same four seeds run one after another, and all eight
// summaries pass CheckInvariants — the zero-leak law included, which is
// per world and so holds while the others run. Shared mutable state
// between worlds (a package-level free list, a cache, a counter) shows
// here as a diverging digest, a leak count, or — the CI job runs this
// under -race — a data race.
func TestConcurrentWorldsMatchSequential(t *testing.T) {
	forEachCell(t, func(t *testing.T, spec rica.Scenario, p rica.Protocol) {
		c := sweep(spec, p)
		for i, want := range c.sequential {
			got := c.concurrent[i]
			if err := errors.Join(want.err, rica.CheckInvariants(want.s)); err != nil {
				t.Errorf("sequential world, seed %d: %v", i+1, err)
			}
			if err := errors.Join(got.err, rica.CheckInvariants(got.s)); err != nil {
				t.Errorf("concurrent world, seed %d: %v", i+1, err)
			}
			if got.witness != want.witness {
				t.Errorf("seed %d: a world run beside three others diverged from the same world run alone\n got: %s\nwant: %s",
					i+1, got.witness, want.witness)
			}
		}
	})
}
