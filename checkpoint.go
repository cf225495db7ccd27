package rica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/durable"
	"rica/internal/experiment"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/world"
)

// Checkpoint/resume. A snapshot is a versioned, self-describing binary
// file (see internal/checkpoint) holding the run's recipe plus a
// complete capture of simulation state at one instant boundary: the
// kernel's pending-event skeleton, every RNG stream's 607-word state,
// mobility legs, fading links, in-flight MAC transmissions and
// exchanges, link queues, route tables, workload cursors, obs counters,
// and the telemetry digest.
//
// Resume rebuilds the identical world from the embedded recipe in a
// fresh process, replays it to the capture instant (the simulator is
// deterministic, so replay IS restoration), then proves the replay by
// re-capturing and comparing every state section byte-for-byte against
// the snapshot — a mismatch fails with a clean error instead of
// continuing from silently divergent state. The verified run then
// continues to the horizon; its summary fingerprint is bit-identical to
// an uninterrupted run's.
//
// ErrInterrupted is returned (wrapped) by the checkpointing run loops
// when the caller's stop channel ended the run early; the partial run's
// final snapshot has been written and can be resumed.
var ErrInterrupted = errors.New("rica: run interrupted")

// ErrCheckpointCorrupt wraps every snapshot integrity or verification
// failure, so callers can distinguish damage from I/O errors.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// Checkpoint runs r up to virtual time at (an instant boundary: every
// event at or before at has dispatched) and writes a snapshot to w.
// The run is then abandoned — use RunCheckpointed to checkpoint
// periodically while running to completion.
func Checkpoint(r ScenarioRun, at time.Duration, w io.Writer) error {
	cr, err := newScenarioCkRun(r)
	if err != nil {
		return err
	}
	if at < 0 || at > cr.horizon {
		return fmt.Errorf("rica: checkpoint instant %v outside run horizon %v", at, cr.horizon)
	}
	cr.w.Start()
	cr.w.RunTo(at)
	return cr.write(w, at)
}

// Resume reads a snapshot, rebuilds and replays the run to the capture
// instant, verifies the replayed state against the snapshot
// byte-for-byte, and runs on to the horizon, returning the completed
// summary. The fingerprint equals the uninterrupted run's.
func Resume(rd io.Reader) (Summary, error) {
	s, _, err := resume(rd, "", 0, nil)
	return s, err
}

// ResumeFile is Resume reading from a snapshot file.
func ResumeFile(path string) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	return Resume(f)
}

// RunCheckpointed executes r to completion, writing a snapshot to path
// at every multiple of the virtual-time cadence `every` (default 10 s
// of simulated time). Writes are atomic (temp file + rename), so a
// process killed mid-write leaves the previous complete snapshot
// intact. If stop closes mid-run, the run halts at the next boundary,
// writes a final snapshot, and returns interrupted = true with an
// ErrInterrupted-wrapped error; resume the snapshot to continue.
func RunCheckpointed(r ScenarioRun, path string, every time.Duration, stop <-chan struct{}) (Summary, bool, error) {
	cr, err := newScenarioCkRun(r)
	if err != nil {
		return Summary{}, false, err
	}
	cr.w.Start()
	return cr.loop(0, path, every, stop)
}

// ResumeCheckpointed is Resume that keeps checkpointing: after the
// verified replay it continues to the horizon under the same periodic
// snapshot regime as RunCheckpointed.
func ResumeCheckpointed(rd io.Reader, path string, every time.Duration, stop <-chan struct{}) (Summary, bool, error) {
	return resume(rd, path, every, stop)
}

// SimulateCheckpointed is Simulate honouring cfg.CheckpointPath and
// cfg.CheckpointEvery (and a stop channel), for SimConfig-shaped runs;
// the scenario-based entry points above are the primary surface.
func SimulateCheckpointed(cfg SimConfig, stop <-chan struct{}) (Summary, bool, error) {
	cr, err := newSimCkRun(cfg)
	if err != nil {
		return Summary{}, false, err
	}
	cr.w.Start()
	return cr.loop(0, cfg.CheckpointPath, cfg.CheckpointEvery, stop)
}

// defaultCheckpointEvery is the periodic snapshot cadence (virtual
// time) when the caller leaves it zero.
const defaultCheckpointEvery = 10 * time.Second

// ckRun is one checkpointable run: the built world plus the recipe that
// rebuilds it.
type ckRun struct {
	w       *world.World
	horizon time.Duration
	desc    checkpoint.Descriptor // AtNs filled per snapshot
}

// newScenarioCkRun builds the world and descriptor for a scenario run.
func newScenarioCkRun(r ScenarioRun) (*ckRun, error) {
	wcfg, err := r.config()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(r.Scenario)
	if err != nil {
		return nil, err
	}
	return &ckRun{
		w:       world.New(wcfg, experiment.Factory(r.Protocol, r.Scenario.Traffic.Rate)),
		horizon: wcfg.Duration,
		desc: checkpoint.Descriptor{
			Kind:          "scenario",
			HorizonNs:     int64(wcfg.Duration),
			Protocol:      r.Protocol.String(),
			Seed:          r.Seed,
			MaxDurationNs: int64(r.MaxDuration),
			Scenario:      raw,
		},
	}, nil
}

// newSimCkRun builds the world and descriptor for a SimConfig run.
func newSimCkRun(cfg SimConfig) (*ckRun, error) {
	wcfg := simWorldConfig(cfg)
	sp := &checkpoint.SimParams{
		MeanSpeedKmh: cfg.MeanSpeedKmh,
		Rate:         cfg.Rate,
		DurationNs:   int64(cfg.Duration),
		BufferCap:    cfg.BufferCap,
	}
	if cfg.Flows != nil {
		raw, err := json.Marshal(cfg.Flows)
		if err != nil {
			return nil, err
		}
		sp.Flows = raw
	}
	d := checkpoint.Descriptor{
		Kind:      "sim",
		HorizonNs: int64(wcfg.Duration),
		Protocol:  cfg.Protocol.String(),
		Seed:      cfg.Seed,
		SeedZero:  cfg.SeedZero,
		Sim:       sp,
	}
	if cfg.Telemetry != nil {
		d.Telemetry = &checkpoint.TelemetryParams{
			IntervalNs: int64(cfg.Telemetry.Interval),
			Streaming:  cfg.Telemetry.Streaming,
		}
	}
	return &ckRun{
		w:       world.New(wcfg, experiment.Factory(cfg.Protocol, cfg.Rate)),
		horizon: wcfg.Duration,
		desc:    d,
	}, nil
}

// ckRunFromDescriptor rebuilds the world a snapshot's recipe describes.
func ckRunFromDescriptor(d checkpoint.Descriptor) (*ckRun, error) {
	proto, err := ParseProtocol(d.Protocol)
	if err != nil {
		return nil, fmt.Errorf("%w: descriptor: %v", ErrCheckpointCorrupt, err)
	}
	switch d.Kind {
	case "scenario":
		spec, err := scenario.ParseJSON(d.Scenario)
		if err != nil {
			return nil, fmt.Errorf("%w: descriptor scenario: %v", ErrCheckpointCorrupt, err)
		}
		cr, err := newScenarioCkRun(ScenarioRun{
			Scenario:    spec,
			Protocol:    proto,
			Seed:        d.Seed,
			MaxDuration: time.Duration(d.MaxDurationNs),
		})
		if err != nil {
			return nil, err
		}
		return cr, nil
	case "sim":
		if d.Sim == nil {
			return nil, fmt.Errorf("%w: sim descriptor lacks parameters", ErrCheckpointCorrupt)
		}
		cfg := SimConfig{
			Protocol:     proto,
			MeanSpeedKmh: d.Sim.MeanSpeedKmh,
			Rate:         d.Sim.Rate,
			Duration:     time.Duration(d.Sim.DurationNs),
			Seed:         d.Seed,
			SeedZero:     d.SeedZero,
			BufferCap:    d.Sim.BufferCap,
		}
		if d.Sim.Flows != nil {
			if err := json.Unmarshal(d.Sim.Flows, &cfg.Flows); err != nil {
				return nil, fmt.Errorf("%w: descriptor flows: %v", ErrCheckpointCorrupt, err)
			}
		}
		if d.Telemetry != nil {
			cfg.Telemetry = &Telemetry{
				Interval:  time.Duration(d.Telemetry.IntervalNs),
				Streaming: d.Telemetry.Streaming,
			}
		}
		return newSimCkRun(cfg)
	default:
		return nil, fmt.Errorf("%w: descriptor kind %q", ErrCheckpointCorrupt, d.Kind)
	}
}

// write captures the world's state at instant at and writes a complete
// snapshot to wr.
func (c *ckRun) write(wr io.Writer, at time.Duration) error {
	secs, err := c.w.CaptureState()
	if err != nil {
		return err
	}
	d := c.desc
	d.AtNs = int64(at)
	desc, err := checkpoint.EncodeDescriptor(d)
	if err != nil {
		return err
	}
	all := append([]checkpoint.Section{{Tag: checkpoint.TagDesc, Payload: desc}}, secs...)
	return checkpoint.Write(wr, all)
}

// writeFile writes a snapshot atomically and durably: temp file in the
// same directory, fsync, rename, fsync the directory (the rename is an
// entry operation — without the directory sync a machine crash can
// roll it back and lose the snapshot). A crash mid-write leaves the
// previous complete snapshot (if any) untouched.
func (c *ckRun) writeFile(path string, at time.Duration) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := c.write(tmp, at); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return durable.Rename(tmp.Name(), path)
}

// loop runs from virtual time `from` to the horizon, stopping at every
// multiple of the cadence to write a snapshot (when path is set) and to
// poll the stop channel. Chunked kernel runs dispatch the identical
// event sequence a single run would, so the summary — and its
// fingerprint — is bit-identical regardless of cadence.
func (c *ckRun) loop(from time.Duration, path string, every time.Duration, stop <-chan struct{}) (Summary, bool, error) {
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	for t := from; t < c.horizon; {
		next := t - t%every + every
		if next > c.horizon {
			next = c.horizon
		}
		c.w.RunTo(next)
		t = next
		interrupted := false
		select {
		case <-stop:
			interrupted = true
		default:
		}
		if t < c.horizon && path != "" {
			// Final-or-periodic snapshot at this boundary. At the horizon
			// itself there is nothing left to resume, so none is written.
			if err := c.writeFile(path, t); err != nil {
				return Summary{}, interrupted, err
			}
		}
		if interrupted && t < c.horizon {
			if path != "" {
				return Summary{}, true, fmt.Errorf("%w at t=%v (snapshot: %s)", ErrInterrupted, t, path)
			}
			return Summary{}, true, fmt.Errorf("%w at t=%v", ErrInterrupted, t)
		}
	}
	return c.w.Finish(), false, nil
}

// resume is the shared resume path: read, rebuild, replay, verify,
// continue (with optional periodic checkpointing).
func resume(rd io.Reader, path string, every time.Duration, stop <-chan struct{}) (Summary, bool, error) {
	secs, err := checkpoint.Read(rd)
	if err != nil {
		return Summary{}, false, err
	}
	d, err := checkpoint.DecodeDescriptor(checkpoint.Find(secs, checkpoint.TagDesc))
	if err != nil {
		return Summary{}, false, err
	}
	cr, err := ckRunFromDescriptor(d)
	if err != nil {
		return Summary{}, false, err
	}
	if at := time.Duration(d.AtNs); at > cr.horizon {
		return Summary{}, false, fmt.Errorf("%w: capture instant %v past horizon %v", ErrCheckpointCorrupt, at, cr.horizon)
	}
	cr.w.Start()
	at := time.Duration(d.AtNs)
	cr.w.RunTo(at)
	if err := verifyReplay(cr.w, secs); err != nil {
		return Summary{}, false, err
	}
	s, interrupted, err := cr.loop(at, path, every, stop)
	return s, interrupted, err
}

// verifyReplay re-captures the replayed world and compares every state
// section byte-for-byte against the snapshot. The simulator being
// deterministic, any mismatch means the snapshot and this binary
// disagree about the run (corruption that survived the CRCs is
// practically impossible; the realistic causes are a changed binary or
// an edited descriptor) — resuming would continue a different run, so
// fail instead.
func verifyReplay(w *world.World, stored []checkpoint.Section) error {
	fresh, err := w.CaptureState()
	if err != nil {
		return err
	}
	for _, s := range fresh {
		if world.VerifyExempt(s.Tag) {
			continue
		}
		got := checkpoint.Find(stored, s.Tag)
		if got == nil {
			return fmt.Errorf("%w: snapshot lacks section %s (version skew?)", ErrCheckpointCorrupt, s.Tag)
		}
		if !bytes.Equal(got, s.Payload) {
			return fmt.Errorf("%w: replayed state diverges from snapshot in section %s", ErrCheckpointCorrupt, s.Tag)
		}
	}
	return nil
}

// simWorldConfig compiles a SimConfig into a world configuration (the
// construction Simulate performs, factored out so resume can rebuild
// the identical world from a snapshot descriptor).
func simWorldConfig(cfg SimConfig) world.Config {
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
		if cfg.Telemetry.Streaming {
			wcfg.Timeseries = timeseries.NewStreamingCollector(cfg.Telemetry.Interval, wcfg.Duration)
		} else {
			wcfg.Timeseries = timeseries.NewCollector(cfg.Telemetry.Interval, wcfg.Duration)
		}
	}
	return wcfg
}
