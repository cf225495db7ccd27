// Package rica is a from-scratch reproduction of "RICA: A
// Receiver-Initiated Approach for Channel-Adaptive On-Demand Routing in Ad
// Hoc Mobile Computing Networks" (Lin, Kwok, Lau — ICDCS 2002).
//
// It bundles a deterministic discrete-event wireless network simulator —
// random-waypoint mobility, a four-class fading channel with CSI hop
// distances (neighbourhoods answered from a spatial grid, so dense
// fields stay fast), a CSMA/CA common channel plus CDMA data planes, and
// store-and-forward terminals — together with five routing protocols
// (RICA, BGCA, AODV, ABR, link state), the experiment harness that
// regenerates every figure of the paper's evaluation, a declarative
// scenario catalog with a parallel batch engine, and per-interval
// telemetry timelines for observing transients (route convergence,
// failure/heal recovery) that end-of-run aggregates hide.
//
// Quick start:
//
//	summary := rica.Simulate(rica.SimConfig{
//		Protocol:     rica.ProtocolRICA,
//		MeanSpeedKmh: 36,
//		Rate:         10,
//		Duration:     60 * time.Second,
//		Seed:         1,
//	})
//	fmt.Printf("delivered %.1f%% with mean delay %v\n",
//		summary.DeliveryRatio*100, summary.AvgDelay)
//
// Figures:
//
//	sweep := rica.Sweep(10, rica.Options{Trials: 5})
//	fmt.Print(sweep.Table(rica.MetricDelay)) // Figure 2(a)
//
// Timelines:
//
//	summary, tl := rica.SimulateTimeline(rica.SimConfig{
//		Protocol: rica.ProtocolRICA, MeanSpeedKmh: 36, Rate: 10,
//		Duration: 60 * time.Second,
//		Telemetry: &rica.Telemetry{Interval: time.Second},
//	})
//	for _, p := range tl.Points {
//		fmt.Printf("t=%gs delivery=%.0f%%\n", p.StartS, p.DeliveryRatio*100)
//	}
package rica

import (
	"io"
	"os"
	"time"

	"rica/internal/batch"
	"rica/internal/experiment"
	"rica/internal/invariant"
	"rica/internal/metrics"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/trace"
	"rica/internal/traffic"
	"rica/internal/world"
)

// Protocol selects one of the five compared routing protocols.
type Protocol = protocol.Protocol

// The five protocols of the paper's comparison.
const (
	ProtocolRICA      = protocol.RICA
	ProtocolBGCA      = protocol.BGCA
	ProtocolAODV      = protocol.AODV
	ProtocolABR       = protocol.ABR
	ProtocolLinkState = protocol.LinkState
)

// AllProtocols lists the comparison set in plotting order.
func AllProtocols() []Protocol { return protocol.AllProtocols() }

// ParseProtocol resolves a protocol name ("RICA", "AODV", ...).
func ParseProtocol(name string) (Protocol, error) { return protocol.ParseProtocol(name) }

// Summary is one simulation run's aggregated measurements.
type Summary = metrics.Summary

// Flow is one unidirectional Poisson data stream between two terminals.
type Flow = traffic.Flow

// SimConfig describes a single simulation run.
type SimConfig struct {
	// Protocol is the routing protocol under test.
	Protocol Protocol
	// MeanSpeedKmh is the mean terminal speed in km/h; terminals draw
	// per-leg speeds uniformly from [0, 2×mean] (the paper's MAXSPEED).
	MeanSpeedKmh float64
	// Rate is the per-flow offered load in packets/second.
	Rate float64
	// Duration is the simulated horizon. Zero means the paper's 500 s.
	Duration time.Duration
	// Seed selects the random universe; equal seeds reproduce bit-equal
	// runs. The zero value is a sentinel meaning "the library default"
	// (seed 1), so an omitted Seed stays reproducible; to run the actual
	// seed 0, set SeedZero.
	Seed int64
	// SeedZero forces the run onto seed 0, which the Seed field's zero
	// sentinel cannot express on its own. Ignored when Seed is nonzero.
	SeedZero bool
	// Flows optionally pins the workload; nil draws 10 disjoint random
	// pairs (the paper's setup).
	Flows []Flow
	// BufferCap overrides the per-link data buffer capacity (paper: 10);
	// zero keeps the default.
	BufferCap int
	// Telemetry, when non-nil, collects an interval-bucketed timeline
	// during the run. Retrieve it with SimulateTimeline, or set
	// Telemetry.Sink to stream it; plain Simulate discards an unsunk
	// timeline.
	Telemetry *Telemetry
	// Obs, when non-nil, is the observability registry the run counts
	// into. Its atomic counters may be read concurrently while the run
	// executes (live heartbeats, the HTTP stats endpoint); attaching one
	// never changes simulation results. When nil the world creates a
	// private registry and the end-of-run snapshot still lands on
	// Summary.Obs.
	Obs *ObsRegistry
}

// Telemetry configures per-interval timeline collection for one run.
type Telemetry struct {
	// Interval is the bucket width; zero means one second.
	Interval time.Duration
	// Sink, when non-nil, receives the finished timeline after the run
	// (stamped with the protocol and effective seed).
	Sink TimelineSink
}

// Simulate runs one simulation and returns its measurements.
func Simulate(cfg SimConfig) Summary {
	s, _, _ := simulate(cfg, nil)
	return s
}

// Timeline types: a Timeline is one run's interval series of
// TimelinePoints; a TimelineSink consumes finished timelines stamped
// with their TimelineRun coordinates.
type (
	Timeline      = timeseries.Timeline
	TimelinePoint = timeseries.Point
	TimelineSink  = timeseries.Sink
	TimelineRun   = timeseries.Run
)

// MemoryTimelineSink retains emitted timelines in memory for
// programmatic access (see its Runs field).
type MemoryTimelineSink = timeseries.MemorySink

// NewJSONLTimelineSink returns a sink writing one JSON object per
// interval (JSON Lines) to w.
func NewJSONLTimelineSink(w io.Writer) TimelineSink { return timeseries.NewJSONLSink(w) }

// NewCSVTimelineSink returns a sink writing one CSV row per interval to
// w, with a header line first.
func NewCSVTimelineSink(w io.Writer) TimelineSink { return timeseries.NewCSVSink(w) }

// SimulateTimeline runs one simulation and returns its measurements plus
// the interval telemetry timeline. A nil cfg.Telemetry behaves like
// &Telemetry{}: one-second buckets, no sink.
func SimulateTimeline(cfg SimConfig) (Summary, Timeline) {
	if cfg.Telemetry == nil {
		cfg.Telemetry = &Telemetry{}
	}
	s, tl, _ := simulate(cfg, nil)
	return s, tl
}

// TraceEvent is one packet-level event from a traced run.
type TraceEvent = trace.Event

// Trace event kinds.
const (
	TraceGenerated   = trace.KindGenerated
	TraceDelivered   = trace.KindDelivered
	TraceDropped     = trace.KindDropped
	TraceControl     = trace.KindControl
	TraceControlLost = trace.KindControlLost
)

// SimulateTraced runs one simulation while recording its packet-level
// event history (the most recent capacity events; capacity 0 retains
// nothing), for debugging and demonstrations.
func SimulateTraced(cfg SimConfig, capacity int) (Summary, []TraceEvent) {
	rec := trace.NewRecorder(capacity)
	s, _, _ := simulate(cfg, rec)
	return s, rec.Events()
}

func simulate(cfg SimConfig, rec *trace.Recorder) (Summary, Timeline, *trace.Recorder) {
	wcfg := world.DefaultConfig(cfg.MeanSpeedKmh, cfg.Rate)
	if cfg.Duration > 0 {
		wcfg.Duration = cfg.Duration
	}
	if cfg.Seed != 0 || cfg.SeedZero {
		wcfg.Seed = cfg.Seed
	}
	if cfg.Flows != nil {
		wcfg.Flows = cfg.Flows
	}
	if cfg.BufferCap > 0 {
		wcfg.Node.BufferCap = cfg.BufferCap
	}
	wcfg.Obs = cfg.Obs
	if cfg.Telemetry != nil {
		wcfg.Timeseries = timeseries.NewCollector(cfg.Telemetry.Interval, wcfg.Duration)
	}
	wcfg.Trace = rec
	summary := world.New(wcfg, protocol.Factory(cfg.Protocol, cfg.Rate)).Run()
	var tl Timeline
	if cfg.Telemetry != nil {
		tl = wcfg.Timeseries.Timeline()
		if cfg.Telemetry.Sink != nil {
			run := TimelineRun{Protocol: cfg.Protocol.String(), Seed: wcfg.Seed}
			// The sink's error has nowhere to surface from Simulate's
			// signature; sinks that can fail belong in batch runs, which
			// propagate it.
			_ = cfg.Telemetry.Sink.Emit(run, tl)
		}
	}
	return summary, tl, rec
}

// Result is one figure point (a protocol × speed × load cell): its
// per-trial summaries and their across-trial means.
type (
	Result   = experiment.Result
	Averages = experiment.Averages
)

// Options sets the experiment grid (speeds, trials, duration, protocols);
// zero values default to the paper's full scale.
type Options = experiment.Options

// Metric selects a sweep projection: delay (Figure 2), delivery
// (Figure 3) or overhead (Figure 4).
type Metric = experiment.Metric

// Sweep projections.
const (
	MetricDelay    = experiment.MetricDelay
	MetricDelivery = experiment.MetricDelivery
	MetricOverhead = experiment.MetricOverhead
)

// SweepResult, QualityResult and SeriesResult are the figure data sets.
type (
	SweepResult   = experiment.SweepResult
	QualityResult = experiment.QualityResult
	SeriesResult  = experiment.SeriesResult
)

// Sweep runs the mobility sweep behind Figures 2, 3 and 4 at the given
// per-flow load (packets/s).
func Sweep(load float64, o Options) SweepResult { return experiment.Sweep(load, o) }

// Quality runs Figure 5's route-quality experiment.
func Quality(speedKmh, load float64, o Options) QualityResult {
	return experiment.Quality(speedKmh, load, o)
}

// Series runs Figure 6's aggregate-throughput time series.
func Series(load, speedKmh float64, o Options) SeriesResult {
	return experiment.Series(load, speedKmh, o)
}

// Figure6SpeedKmh is the mobility used for Figure 6 (the paper does not
// state one; low-to-moderate mobility matches its curves).
const Figure6SpeedKmh = 18.0

// Scenario is a declarative simulation description: topology, traffic
// pattern, node failure schedule, channel/buffer overrides, and horizon.
// Scenarios serialize to JSON and compile to full simulation configs; see
// ScenarioNames for the built-in catalog.
type Scenario = scenario.Spec

// ScenarioDuration is the JSON-friendly duration type scenario specs use
// ("90s" strings on the wire; convert with time.Duration casts in code).
type ScenarioDuration = scenario.Duration

// ScenarioNames lists the built-in scenario catalog, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName fetches a built-in scenario ("paper-baseline",
// "dense-urban", ...).
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// ParseScenario decodes and validates a JSON scenario spec.
func ParseScenario(data []byte) (Scenario, error) { return scenario.ParseJSON(data) }

// LoadScenario reads a scenario spec from a JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	return scenario.ParseJSON(data)
}

// ScenarioRun pins one simulation of a compiled scenario: the spec, the
// protocol under test, and the deterministic coordinates. It is the
// single-run analogue of a batch cell — SimulateScenario(r) and a
// 1×1×1 RunBatch cell execute the same configuration.
type ScenarioRun struct {
	// Scenario is the validated spec to compile and run.
	Scenario Scenario
	// Protocol is the routing protocol under test.
	Protocol Protocol
	// Seed overrides the scenario's compiled seed when nonzero.
	Seed int64
	// MaxDuration, when positive, truncates the scenario's horizon — the
	// fuzzer and the invariant sweep run long catalog entries at short
	// horizons without editing the specs.
	MaxDuration time.Duration
}

// config compiles the run into a world configuration.
func (r ScenarioRun) config() (world.Config, error) {
	wcfg, err := r.Scenario.Compile()
	if err != nil {
		return world.Config{}, err
	}
	if r.Seed != 0 {
		wcfg.Seed = r.Seed
	}
	if r.MaxDuration > 0 && r.MaxDuration < wcfg.Duration {
		wcfg.Duration = r.MaxDuration
	}
	return wcfg, nil
}

// SimulateScenario compiles and executes one scenario run.
func SimulateScenario(r ScenarioRun) (Summary, error) {
	wcfg, err := r.config()
	if err != nil {
		return Summary{}, err
	}
	return world.New(wcfg, protocol.Factory(r.Protocol, r.Scenario.Traffic.Rate)).Run(), nil
}

// VerifyScenario executes the run under the full invariant harness: the
// simulation runs twice and must satisfy packet conservation and the
// ledger checks (CheckInvariants) on both passes, replay to a
// bit-identical fingerprint, and return every pooled packet. The first
// pass's summary is returned. Serial-use only — the leak check reads the
// process-global packet pool, so concurrent simulations (including
// t.Parallel tests) poison its baseline.
func VerifyScenario(r ScenarioRun) (Summary, error) {
	wcfg, err := r.config()
	if err != nil {
		return Summary{}, err
	}
	return invariant.Verify(func() Summary {
		cfg := wcfg // runs must not share mutable state
		return world.New(cfg, protocol.Factory(r.Protocol, r.Scenario.Traffic.Rate)).Run()
	})
}

// CheckInvariants validates a completed run's conservation laws: every
// generated packet is delivered, dropped for a recorded reason, or
// counted in flight at the horizon; independently maintained ledgers
// (delay histogram, traffic counters, adversary drops, kernel event
// counts) agree; the delivery ratio is consistent. A nil error means the
// summary is self-consistent. Works on any Summary — Simulate or batch
// cell.
func CheckInvariants(s Summary) error { return invariant.CheckSummary(s) }

// Fingerprint renders a Summary into an exact, platform-independent
// string (integers verbatim, floats in hex so equality means
// bit-equality). Two runs of the same configuration must produce equal
// fingerprints; the golden regression tests pin recorded outputs of this
// exact format.
func Fingerprint(s Summary) string { return invariant.Fingerprint(s) }

// CheckTimelineInvariants validates a finished interval timeline's
// monotonicity laws: every cumulative counter (generated, delivered,
// drops by reason, control traffic, route churn) is non-decreasing over
// the run — per-interval deltas never go negative — and the cumulative
// books balance at every interval boundary (delivered + dropped never
// exceeds generated at any prefix, not just at the horizon). A nil
// error means the timeline is self-consistent. The invariant catalog
// sweep holds every built-in scenario × protocol cell to these laws.
func CheckTimelineInvariants(tl Timeline) error { return invariant.CheckTimeline(tl) }

// Batch types: BatchConfig spans a scenario × protocol × seed grid,
// BatchResult carries per-cell rows plus mean/p50/p95 aggregates (with
// JSON/CSV export), and BatchProgress streams per-cell completions.
type (
	BatchConfig    = batch.Config
	BatchResult    = batch.Result
	BatchCell      = batch.CellResult
	BatchAggregate = batch.Aggregate
	BatchProgress  = batch.Progress
)

// BatchTelemetry enables per-cell timeline collection in a batch: set
// BatchConfig.Telemetry and every scenario×protocol×seed cell emits an
// interval timeline to the sink, in grid order.
type BatchTelemetry = batch.Telemetry

// RunBatch expands the grid and executes it across a worker pool sized by
// BatchConfig.Workers (default: GOMAXPROCS). Cells run deterministic
// seeds and results are assembled in grid order, so the same scenarios
// and base seed produce bit-identical exports regardless of parallelism.
// Crash resilience: a panicking or stalling cell is quarantined (see
// BatchCell.Error) instead of killing the grid, BatchConfig.Manifest
// journals finished cells durably for resume, and BatchConfig.Stop ends
// the grid gracefully with ErrBatchInterrupted.
func RunBatch(cfg BatchConfig) (BatchResult, error) { return batch.Run(cfg) }

// ErrBatchInterrupted is wrapped by RunBatch's error when
// BatchConfig.Stop ended the grid before every cell ran; the partial
// result's finished cells are journaled when BatchConfig.Manifest is
// set, so re-running the same grid resumes instead of restarting.
var ErrBatchInterrupted = batch.ErrInterrupted

// Observability types: an ObsRegistry holds one run's (or one batch
// cell's) subsystem counters and delay histogram; an ObsSnapshot is its
// deterministic export form (attached to Summary.Obs and BatchCell.Obs);
// an ObsHub aggregates registries across concurrent runs and serves the
// live JSON/Prometheus surfaces; ObsPoolStats is the process-global
// pooled-packet accounting.
type (
	ObsRegistry  = obs.Registry
	ObsSnapshot  = obs.Snapshot
	ObsHub       = obs.Hub
	ObsPoolStats = obs.PoolStats
)

// NewObsRegistry builds an empty observability registry to pass as
// SimConfig.Obs (or BatchConfig.Hub attachment) when a caller wants to
// watch counters while a run executes.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsHub builds an empty hub. Attach registries (or set
// BatchConfig.Hub) and serve hub.Handler() for live stats over HTTP.
func NewObsHub() *ObsHub { return obs.NewHub() }

// PoolStats reports the process-global pooled-packet accounting: total
// gets and releases, packets currently live outside the pool, and the
// live high-water mark. Process-wide (parallel runs share one pool), so
// it belongs on live surfaces and process-level snapshots, never in
// per-cell deterministic exports. Wire it as ObsHub.PoolFunc.
func PoolStats() ObsPoolStats {
	gets, releases, live, high := packet.PoolStats()
	return ObsPoolStats{Gets: gets, Releases: releases, Live: live, HighWater: high}
}
