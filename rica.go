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
// Quick start — the paper's field (50 terminals on 1 km², ten Poisson
// flows) at 36 km/h and 10 packets/s per flow, for 60 s:
//
//	field, err := rica.PaperField(36, 10, 60*time.Second)
//	if err != nil {
//		log.Fatal(err)
//	}
//	summary, err := rica.Run(rica.ScenarioRun{
//		Scenario: field, Protocol: rica.ProtocolRICA, Seed: 1,
//	}, rica.RunOptions{})
//	fmt.Printf("delivered %.1f%% with mean delay %v\n",
//		summary.DeliveryRatio*100, summary.AvgDelay)
//
// Figures:
//
//	sweep := rica.Sweep(10, rica.Options{Trials: 5})
//	fmt.Print(sweep.Table(rica.MetricDelay)) // Figure 2(a)
//
// Timelines — like the packet trace, the live counter registry and the
// periodic snapshot, an option of the same Run:
//
//	var sink rica.MemoryTimelineSink
//	summary, err := rica.Run(run, rica.RunOptions{
//		Telemetry: &rica.Telemetry{Interval: time.Second, Sink: &sink},
//	})
//	for _, p := range sink.Runs[0].Timeline.Points {
//		fmt.Printf("t=%gs delivery=%.0f%%\n", p.StartS, p.DeliveryRatio*100)
//	}
package rica

import (
	"fmt"
	"io"
	"os"
	"time"

	"rica/internal/batch"
	"rica/internal/checkpoint"
	"rica/internal/experiment"
	"rica/internal/invariant"
	"rica/internal/metrics"
	"rica/internal/obs"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/trace"
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

// Telemetry asks a run for its per-interval timeline.
type Telemetry struct {
	// Interval is the bucket width; zero means one second.
	Interval time.Duration
	// Sink receives the finished timeline after the run, stamped with the
	// scenario name, the protocol and the effective seed. Required; use a
	// MemoryTimelineSink to read the timeline back in process.
	Sink TimelineSink
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

// TraceRecorder is a bounded ring of a run's packet-level events, for
// debugging and demonstrations; read it back with its Events method.
type TraceRecorder = trace.Recorder

// NewTraceRecorder builds a recorder keeping the most recent capacity
// events (capacity 0 counts events and retains none).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

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

// ScenarioPair pins one flow's endpoints in Scenario.Traffic.Pairs.
type ScenarioPair = scenario.Pair

// PaperField is the paper's §III.A evaluation environment — 50 terminals
// roaming 1000 × 1000 m, ten Poisson flows between random disjoint pairs
// — at one figure point: the paper-baseline builtin with its mean speed
// (km/h; terminals draw per-leg speeds uniformly from [0, 2×mean]),
// per-flow load (packets/s) and horizon (zero keeps the paper's 500 s)
// overridden. It is the spec every figure cell runs; pin the workload
// with Traffic.Pairs and resize the buffers with BufferCap on the result.
// The error is the spec validator's.
func PaperField(speedKmh, load float64, horizon time.Duration) (Scenario, error) {
	return experiment.FieldSpec(speedKmh, load, horizon)
}

// ScenarioRun pins one simulation of a compiled scenario: the spec, the
// protocol under test, and the deterministic coordinates. It is the only
// description of a single run — Run(r, RunOptions{}) and a 1×1×1 RunBatch
// cell execute the same configuration, and a snapshot's recipe is one.
type ScenarioRun struct {
	// Scenario is the validated spec to compile and run.
	Scenario Scenario
	// Protocol is the routing protocol under test.
	Protocol Protocol
	// Seed selects the random universe when nonzero; equal seeds
	// reproduce bit-equal runs. Zero keeps the scenario's compiled seed
	// (the library default, 1, unless the spec sets one).
	Seed int64
	// MaxDuration, when positive, truncates the scenario's horizon — the
	// fuzzer and the invariant sweep run long catalog entries at short
	// horizons without editing the specs.
	MaxDuration time.Duration
}

// RunOptions attaches observers to one run. Every field is optional and
// none of them moves the run's Fingerprint: a run observed through any
// subset dispatches the event sequence of the bare run. All of them are
// valid on Resume too — a resume replays from t=0, so a timeline or a
// trace of a resumed run covers the whole run.
type RunOptions struct {
	// Telemetry, when non-nil, collects an interval timeline and emits it
	// to Telemetry.Sink once the run completes.
	Telemetry *Telemetry
	// Trace, when non-nil, records the run's packet-level event history.
	Trace *TraceRecorder
	// Obs, when non-nil, is the observability registry the run counts
	// into. Its atomic counters may be read concurrently while the run
	// executes (live heartbeats, the HTTP stats endpoint). When nil the
	// world creates a private registry and the end-of-run snapshot still
	// lands on Summary.Obs.
	Obs *ObsRegistry
	// CheckpointPath, when set, has a snapshot written to this file at
	// every multiple of CheckpointEvery short of the horizon, and at the
	// instant Stop ended the run. Writes are atomic and durable (temp
	// file, fsync, rename, directory fsync), so a process killed mid-write
	// leaves the previous complete snapshot intact. Continue a snapshot
	// with Resume.
	CheckpointPath string
	// CheckpointEvery is the virtual-time cadence of the snapshots; zero
	// means 10 s of simulated time.
	CheckpointEvery time.Duration
	// Stop, when closed mid-run, halts the run at the kernel's current
	// instant — every event at or before it dispatched, none after — with
	// an ErrInterrupted-wrapped error, after writing that instant's
	// snapshot when CheckpointPath is set.
	Stop <-chan struct{}
}

// defaultCheckpointEvery is RunOptions.CheckpointEvery's zero value.
const defaultCheckpointEvery = 10 * time.Second

// Run compiles and executes one scenario run under the given options
// and returns its measurements. A failing Telemetry.Sink is reported
// after the run: the returned summary is complete and the error wraps
// the sink's.
func Run(r ScenarioRun, o RunOptions) (Summary, error) { return execute(r, o, nil) }

// execute is the one place a single run is driven: start its world,
// then run horizon-ward — in cadence steps writing a snapshot at every
// boundary when a checkpoint path is set, in one step otherwise. Chunked
// kernel runs dispatch the identical event sequence a single run would,
// so the summary is bit-identical whatever the cadence. A closed Stop
// reaches the kernel wherever it is. With snap set (Resume) the world
// first replays to the capture instant and must reproduce the snapshot's
// digests there.
func execute(r ScenarioRun, o RunOptions, snap *snapshot) (Summary, error) {
	w, recipe, err := r.start(o)
	if err != nil {
		return Summary{}, err
	}
	horizon := w.Cfg.Duration
	// The decoder has bounded a snapshot's instant by its recorded
	// horizon; a recorded horizon this binary does not compile from the
	// recipe would replay to a different end.
	if snap != nil && snap.horizon != horizon {
		return Summary{}, fmt.Errorf("%w: snapshot records horizon %v, its recipe compiles to %v", ErrCheckpointCorrupt, snap.horizon, horizon)
	}
	var t time.Duration
	if snap != nil {
		t = snap.at
		if !w.RunTo(t) {
			// An unverified replay is not this run's state yet: it is not
			// written over anything.
			return Summary{}, fmt.Errorf("%w at t=%v, replaying to the snapshot's t=%v", ErrInterrupted, w.Kernel.Now(), t)
		}
		if err := verifyReplay(w, snap.sections); err != nil {
			return Summary{}, err
		}
	}
	every := horizon
	if o.CheckpointPath != "" {
		every = o.CheckpointEvery
		if every <= 0 {
			every = defaultCheckpointEvery
		}
	}
	for t < horizon {
		t = min(t-t%every+every, horizon)
		if !w.RunTo(t) {
			at := w.Kernel.Now()
			if o.CheckpointPath == "" {
				return Summary{}, fmt.Errorf("%w at t=%v", ErrInterrupted, at)
			}
			// A failed write is never an interruption: there is no
			// snapshot to resume.
			if err := writeSnapshot(w, recipe, o.CheckpointPath, at); err != nil {
				return Summary{}, err
			}
			return Summary{}, fmt.Errorf("%w at t=%v (snapshot: %s)", ErrInterrupted, at, o.CheckpointPath)
		}
		// At the horizon nothing is left to resume, so no snapshot is
		// written.
		if t < horizon && o.CheckpointPath != "" {
			if err := writeSnapshot(w, recipe, o.CheckpointPath, t); err != nil {
				return Summary{}, err
			}
		}
	}
	s := w.Finish()
	if o.Telemetry != nil {
		run := TimelineRun{Scenario: r.Scenario.Name, Protocol: r.Protocol.String(), Seed: w.Cfg.Seed}
		if err := o.Telemetry.Sink.Emit(run, w.Cfg.Timeseries.Timeline()); err != nil {
			return s, fmt.Errorf("rica: timeline sink: %w", err)
		}
	}
	return s, nil
}

// start compiles the run, attaches o's observers and stop, and builds
// and starts its world; with o.CheckpointPath set it also returns the
// recipe the run's snapshots store.
func (r ScenarioRun) start(o RunOptions) (*world.World, checkpoint.Descriptor, error) {
	wcfg, err := r.Scenario.Compile()
	if err != nil {
		return nil, checkpoint.Descriptor{}, err
	}
	if r.Seed != 0 {
		wcfg.Seed = r.Seed
	}
	if r.MaxDuration > 0 && r.MaxDuration < wcfg.Duration {
		wcfg.Duration = r.MaxDuration
	}
	if o.Telemetry != nil {
		if o.Telemetry.Sink == nil {
			return nil, checkpoint.Descriptor{}, fmt.Errorf("rica: Telemetry needs a Sink")
		}
		wcfg.Timeseries = timeseries.NewCollector(o.Telemetry.Interval, wcfg.Duration)
	}
	wcfg.Trace = o.Trace
	wcfg.Obs = o.Obs
	wcfg.Stop = o.Stop
	var recipe checkpoint.Descriptor
	if o.CheckpointPath != "" {
		if recipe, err = r.descriptor(wcfg.Duration); err != nil {
			return nil, checkpoint.Descriptor{}, err
		}
	}
	w := world.New(wcfg, protocol.Factory(r.Protocol, r.Scenario.Traffic.Rate))
	w.Start()
	return w, recipe, nil
}

// VerifyScenario executes the run under the full invariant harness: the
// simulation runs twice and must satisfy packet conservation and the
// ledger checks (CheckInvariants, the zero-leak law among them) on both
// passes and replay to a bit-identical fingerprint. The first pass's
// summary is returned.
func VerifyScenario(r ScenarioRun) (Summary, error) {
	var runErr error
	s, err := invariant.Verify(func() Summary {
		s, err := Run(r, RunOptions{})
		if err != nil {
			runErr = err
		}
		return s
	})
	if runErr != nil {
		return Summary{}, runErr
	}
	return s, err
}

// CheckInvariants validates a completed run's conservation laws: every
// generated packet is delivered, dropped for a recorded reason, or
// counted in flight at the horizon; independently maintained ledgers
// (delay histogram, traffic counters, adversary drops, kernel event
// counts) agree; the delivery ratio is consistent. A nil error means the
// summary is self-consistent. Works on any Summary — Run's or a batch
// cell's.
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
// Crash resilience: a panicking cell is quarantined (see
// BatchCell.Error) instead of killing the grid, BatchConfig.Manifest
// journals finished cells durably for resume, and a closed
// BatchConfig.Stop ends the grid within one instant of every in-flight
// cell with an ErrInterrupted-wrapped error: the result holds the cells
// that finished, and re-running the same grid with the manifest resumes
// instead of restarting.
func RunBatch(cfg BatchConfig) (BatchResult, error) { return batch.Run(cfg) }

// Observability types: an ObsRegistry holds one run's (or one batch
// cell's) subsystem counters and delay histogram; an ObsSnapshot is its
// deterministic export form (attached to Summary.Obs and BatchCell.Obs);
// an ObsHub aggregates registries across concurrent runs and serves the
// live JSON/Prometheus surfaces.
type (
	ObsRegistry = obs.Registry
	ObsSnapshot = obs.Snapshot
	ObsHub      = obs.Hub
)

// NewObsRegistry builds an empty observability registry to pass as
// RunOptions.Obs (or BatchConfig.Hub attachment) when a caller wants to
// watch counters while a run executes.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsHub builds an empty hub. Attach registries (or set
// BatchConfig.Hub) and serve hub.Handler() for live stats over HTTP.
func NewObsHub() *ObsHub { return obs.NewHub() }
