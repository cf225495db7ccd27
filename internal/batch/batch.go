// Package batch mass-executes scenarios. It expands a scenario ×
// protocol × seed grid into independent cells, runs them across a worker
// pool sized to the hardware (or an explicit parallelism cap), streams
// progress as cells finish, and folds the per-cell summaries into
// mean/p50/p95 aggregates per (scenario, protocol). Every cell's seed is
// a deterministic function of the grid, and results are assembled in grid
// order regardless of completion order — so the same specs and base seed
// produce bit-identical exported output no matter how many workers ran.
package batch

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"rica/internal/metrics"
	"rica/internal/obs"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/world"
)

// Config describes one batch: the grid to expand and how hard to run it.
type Config struct {
	// Scenarios and Protocols span the grid; empty Protocols means the
	// paper's full five-protocol comparison set.
	Scenarios []scenario.Spec
	Protocols []protocol.Protocol
	// Trials is the number of seeds per (scenario, protocol) cell;
	// defaults to 3.
	Trials int
	// BaseSeed offsets the trial seeds: trial t runs seed BaseSeed+t, the
	// same universe across scenarios and protocols so comparisons share
	// sample paths. The zero value is a sentinel for the default (1); to
	// start the grid at the actual seed 0, set SeedZero.
	BaseSeed int64
	// SeedZero forces BaseSeed 0, which the BaseSeed field's zero
	// sentinel cannot express on its own. Ignored when BaseSeed is
	// nonzero.
	SeedZero bool
	// Workers caps concurrent cells; 0 means GOMAXPROCS.
	Workers int
	// OnProgress, if set, is called after every finished cell (from worker
	// goroutines, serialized by the engine).
	OnProgress func(p Progress)
	// Telemetry, when non-nil, makes every cell collect an interval
	// timeline alongside its aggregate row. Timelines are emitted to the
	// sink serially, in grid order, after all cells complete — so equal
	// batches stream byte-identical telemetry regardless of Workers.
	Telemetry *Telemetry
	// Hub, when non-nil, has every in-flight cell's observability registry
	// attached for the duration of its run, so live surfaces (the stats
	// heartbeat, the HTTP endpoint) see batch-wide aggregate counters while
	// the grid executes. Purely additive: per-cell snapshots stay exactly
	// as deterministic as without a hub.
	Hub *obs.Hub
	// Manifest, when set, journals every finished cell to this
	// append-only JSON-Lines file, fsync'd per line. Re-running the same
	// grid with the same manifest path resumes it: journaled cells are
	// restored verbatim instead of recomputed, so a killed batch loses
	// at most the cells that were in flight. A manifest written by a
	// different grid is rejected. Mutually exclusive with Telemetry
	// (timelines are not journaled).
	Manifest string
	// Stop, when non-nil, ends the batch when closed: no new cells start,
	// and every in-flight cell stops at its kernel's current instant and
	// is abandoned — neither a result nor journaled nor poisoned. Run
	// returns the cells that finished with an error wrapping
	// world.ErrInterrupted; with a manifest, re-running resumes from them.
	Stop <-chan struct{}
}

// Telemetry configures per-cell timeline collection for a batch.
type Telemetry struct {
	// Interval is the bucket width; zero means timeseries.DefaultInterval.
	Interval time.Duration
	// Sink receives one Emit per cell, in grid order. Required.
	Sink timeseries.Sink
}

// Progress reports one finished cell.
type Progress struct {
	Done, Total int
	Cell        CellResult
}

// CellResult is one (scenario, protocol, seed) run's headline numbers.
type CellResult struct {
	Scenario     string  `json:"scenario"`
	Protocol     string  `json:"protocol"`
	Seed         int64   `json:"seed"`
	Generated    int     `json:"generated"`
	Delivered    int     `json:"delivered"`
	DeliveryPct  float64 `json:"delivery_pct"`
	AvgDelayMs   float64 `json:"avg_delay_ms"`
	P99DelayMs   float64 `json:"p99_delay_ms"`
	OverheadKbps float64 `json:"overhead_kbps"`
	GoodputKbps  float64 `json:"goodput_kbps"`
	AvgHops      float64 `json:"avg_hops"`
	// Events is the kernel's dispatched-event count for the run —
	// deterministic, so equal cells export byte-identically.
	Events uint64 `json:"events"`
	// Obs is the cell's end-of-run observability snapshot. Every field in
	// it is deterministic per seed, so it exports byte-identically too.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Error marks a poisoned cell: its run panicked and was
	// quarantined so the rest of the grid could finish. Poisoned cells
	// carry no measurements and are excluded from aggregates.
	Error string `json:"error,omitempty"`
	// Stack is the recovered panic's stack trace (panic poisoning only).
	Stack string `json:"stack,omitempty"`
	// Summary is the run's full measurement set, for in-process callers
	// that need more than the headline columns (the figure harness reads
	// hop counts and the throughput series from it). It is never
	// serialized — journal lines and exports keep their bytes — so it is
	// nil for cells restored from a manifest, and for poisoned cells.
	Summary *metrics.Summary `json:"-"`
}

// Poisoned reports whether the cell was quarantined instead of measured.
func (c CellResult) Poisoned() bool { return c.Error != "" }

// Stat is one metric's cross-trial distribution snapshot.
type Stat struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// Aggregate folds one (scenario, protocol) cell group across its trials.
type Aggregate struct {
	Scenario     string `json:"scenario"`
	Protocol     string `json:"protocol"`
	Trials       int    `json:"trials"`
	DeliveryPct  Stat   `json:"delivery_pct"`
	AvgDelayMs   Stat   `json:"avg_delay_ms"`
	OverheadKbps Stat   `json:"overhead_kbps"`
	GoodputKbps  Stat   `json:"goodput_kbps"`
}

// Result is the whole batch's output, in deterministic grid order.
type Result struct {
	BaseSeed   int64        `json:"base_seed"`
	Trials     int          `json:"trials"`
	Cells      []CellResult `json:"cells"`
	Aggregates []Aggregate  `json:"aggregates"`
	// Restored counts cells replayed from the manifest journal instead
	// of recomputed. It is deliberately absent from the export: it
	// records this process's resume history, not the grid's results, and
	// exports must be byte-identical whether or not a run was resumed
	// (the serve chaos test holds them to that). It is reported on
	// stderr instead. Poisoned counts quarantined cells and IS exported:
	// the same grid poisons the same cells.
	Restored int `json:"-"`
	Poisoned int `json:"poisoned,omitempty"`
}

// cell is one expanded grid point.
type cell struct {
	spec     scenario.Spec
	cfg      world.Config
	protocol protocol.Protocol
	seed     int64
}

// Run expands and executes the grid. It fails fast — before running
// anything — if any scenario does not compile.
func Run(cfg Config) (Result, error) {
	if len(cfg.Scenarios) == 0 {
		return Result{}, fmt.Errorf("batch: no scenarios")
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Sink == nil {
		return Result{}, fmt.Errorf("batch: Telemetry needs a Sink")
	}
	if cfg.Manifest != "" && cfg.Telemetry != nil {
		return Result{}, fmt.Errorf("batch: Manifest and Telemetry are mutually exclusive (timelines are not journaled)")
	}
	protocols := cfg.Protocols
	if len(protocols) == 0 {
		protocols = protocol.AllProtocols()
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 3
	}
	baseSeed := cfg.BaseSeed
	if baseSeed == 0 && !cfg.SeedZero {
		baseSeed = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Compile every scenario once, then expand scenario-major so exported
	// rows group naturally.
	var cells []cell
	for _, spec := range cfg.Scenarios {
		wcfg, err := spec.Compile()
		if err != nil {
			return Result{}, err
		}
		for _, p := range protocols {
			for t := 0; t < trials; t++ {
				c := cell{spec: spec, cfg: wcfg, protocol: p, seed: baseSeed + int64(t)}
				cells = append(cells, c)
			}
		}
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Open the manifest journal (when configured) and restore every cell
	// a previous run of this exact grid already journaled.
	var man *manifest
	restoredCells := map[int]CellResult{}
	if cfg.Manifest != "" {
		var err error
		man, restoredCells, err = openManifest(cfg.Manifest, gridSignature(cells, baseSeed, trials), len(cells))
		if err != nil {
			return Result{}, err
		}
		defer man.Close()
	}

	results := make([]CellResult, len(cells))
	finished := make([]bool, len(cells)) // distinct indices per worker; read after wg.Wait
	var timelines []timeseries.Timeline
	if cfg.Telemetry != nil {
		timelines = make([]timeseries.Timeline, len(cells))
	}
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		progress sync.Mutex
		done     int
		manErr   error
	)
	report := func(i int) {
		if cfg.OnProgress == nil {
			return
		}
		progress.Lock()
		done++
		cfg.OnProgress(Progress{Done: done, Total: len(cells), Cell: results[i]})
		progress.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var tl *timeseries.Timeline
				if timelines != nil {
					tl = &timelines[i]
				}
				results[i], finished[i] = runCell(cells[i], &cfg, tl)
				if !finished[i] {
					continue // stopped mid-cell: abandoned
				}
				if man != nil {
					if err := man.record(i, results[i]); err != nil {
						progress.Lock()
						if manErr == nil {
							manErr = err
						}
						progress.Unlock()
					}
				}
				report(i)
			}
		}()
	}
	for i, rc := range restoredCells {
		results[i] = rc
		finished[i] = true
		report(i)
	}
dispatch:
	for i := range cells {
		if _, ok := restoredCells[i]; ok {
			continue
		}
		select {
		case jobs <- i:
		case <-cfg.Stop:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	interrupted := slices.Contains(finished, false)

	res := Result{
		BaseSeed: baseSeed,
		Trials:   trials,
		Cells:    results,
		Restored: len(restoredCells),
	}
	for _, c := range results {
		if c.Poisoned() {
			res.Poisoned++
		}
	}
	if manErr != nil {
		return res, fmt.Errorf("batch: manifest journal: %w", manErr)
	}
	// Telemetry drains serially in grid order: each cell collected into
	// its own collector, so the emitted byte stream is independent of how
	// many workers ran or in what order cells finished. An interrupted
	// batch emits the contiguous finished prefix — a deterministic prefix
	// of the uninterrupted batch's stream — rather than dropping it.
	if cfg.Telemetry != nil {
		for i, c := range cells {
			if !finished[i] {
				break
			}
			run := timeseries.Run{Scenario: c.spec.Name, Protocol: c.protocol.String(), Seed: c.seed}
			if err := cfg.Telemetry.Sink.Emit(run, timelines[i]); err != nil {
				return res, fmt.Errorf("batch: telemetry sink: %w", err)
			}
		}
	}
	if interrupted {
		// Partial result: every finished cell is present (and journaled);
		// aggregates over a half-run grid would mislead, so they stay empty.
		return res, fmt.Errorf("%w: stopped before the grid completed", world.ErrInterrupted)
	}

	res.Aggregates = aggregate(results, len(cfg.Scenarios), len(protocols), trials)
	return res, nil
}

// testCellHook, when non-nil, runs at the top of every cell — the tests'
// injection point for panics. Never set outside tests.
var testCellHook func(scenarioName string, p protocol.Protocol, seed int64)

// runCell executes one fully deterministic simulation on the worker's
// own goroutine; when telemetry is enabled it attaches a fresh per-run
// collector and stores the finished timeline through tl. It reports
// false, with no result, when Config.Stop ended the cell before its
// horizon. A panic is recovered into a quarantine row — grid coordinates
// for attribution, the panic value, the stack — and the rest of the grid
// keeps running. Nothing is retried — a deterministic cell that panicked
// once panics again — and a cell that never returns is not bounded here,
// because a goroutine cannot be killed: the daemon's -hung-timeout kills
// the whole worker process and the manifest resumes the grid.
func runCell(c cell, cfg *Config, tl *timeseries.Timeline) (res CellResult, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			res = CellResult{
				Scenario: c.spec.Name,
				Protocol: c.protocol.String(),
				Seed:     c.seed,
				Error:    fmt.Sprintf("panic: %v", r),
				Stack:    string(debug.Stack()),
			}
			ok = true
		}
	}()
	if testCellHook != nil {
		testCellHook(c.spec.Name, c.protocol, c.seed)
	}
	tele, hub := cfg.Telemetry, cfg.Hub
	wcfg := c.cfg // each cell mutates its own copy
	wcfg.Seed = c.seed
	if tele != nil {
		wcfg.Timeseries = timeseries.NewCollector(tele.Interval, wcfg.Duration)
	}
	wcfg.Obs = obs.NewRegistry()
	if hub != nil {
		hub.Attach(wcfg.Obs)
		defer hub.Detach(wcfg.Obs)
	}
	wcfg.Stop = cfg.Stop
	w := world.New(wcfg, protocol.Factory(c.protocol, c.spec.Traffic.Rate))
	w.Start()
	if !w.RunTo(wcfg.Duration) {
		return CellResult{}, false
	}
	s := w.Finish()
	w.Retire()
	if tele != nil {
		*tl = wcfg.Timeseries.Timeline()
	}
	return CellResult{
		Scenario:     c.spec.Name,
		Protocol:     c.protocol.String(),
		Seed:         c.seed,
		Generated:    s.Generated,
		Delivered:    s.Delivered,
		DeliveryPct:  s.DeliveryRatio * 100,
		AvgDelayMs:   float64(s.AvgDelay) / float64(time.Millisecond),
		P99DelayMs:   float64(s.Delay.P99) / float64(time.Millisecond),
		OverheadKbps: s.OverheadBps / 1000,
		GoodputKbps:  s.GoodputBps / 1000,
		AvgHops:      s.AvgHops,
		Events:       s.Events,
		Obs:          s.Obs,
		Summary:      &s,
	}, true
}

// aggregate folds the grid-ordered cell rows into per-(scenario,
// protocol) statistics. Poisoned cells carry no measurements, so they
// are excluded and the group's Trials reports the healthy count.
func aggregate(cells []CellResult, nScenarios, nProtocols, trials int) []Aggregate {
	out := make([]Aggregate, 0, nScenarios*nProtocols)
	for g := 0; g+trials <= len(cells); g += trials {
		group := cells[g : g+trials]
		var healthy []CellResult
		for _, c := range group {
			if !c.Poisoned() {
				healthy = append(healthy, c)
			}
		}
		a := Aggregate{
			Scenario: group[0].Scenario,
			Protocol: group[0].Protocol,
			Trials:   len(healthy),
		}
		if len(healthy) > 0 {
			a.DeliveryPct = stat(healthy, func(c CellResult) float64 { return c.DeliveryPct })
			a.AvgDelayMs = stat(healthy, func(c CellResult) float64 { return c.AvgDelayMs })
			a.OverheadKbps = stat(healthy, func(c CellResult) float64 { return c.OverheadKbps })
			a.GoodputKbps = stat(healthy, func(c CellResult) float64 { return c.GoodputKbps })
		}
		out = append(out, a)
	}
	return out
}

// stat projects one metric out of the group and snapshots its
// distribution via the metrics package's estimators.
func stat(group []CellResult, get func(CellResult) float64) Stat {
	xs := make([]float64, len(group))
	for i, c := range group {
		xs[i] = get(c)
	}
	return Stat{
		Mean: metrics.Mean(xs),
		P50:  metrics.Quantile(xs, 0.50),
		P95:  metrics.Quantile(xs, 0.95),
	}
}
