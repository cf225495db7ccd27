package rica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/durable"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// Checkpoint/resume. A snapshot is a versioned, self-describing binary
// file (see internal/checkpoint) holding the run's recipe, the capture
// instant, and one digest per section of the simulation state captured
// at that instant boundary: the kernel's pending-event skeleton, every
// RNG stream's 607-word state, mobility legs, fading links, in-flight
// MAC transmissions and exchanges, link queues and route tables,
// workload cursors, and obs counters.
//
// Resume rebuilds the identical world from the embedded recipe in a
// fresh process, replays it to the capture instant (the simulator is
// deterministic, so replay IS restoration), then proves the replay by
// re-capturing and comparing every state section's digest against the
// snapshot — a mismatch fails with a clean error naming the section
// instead of continuing from silently divergent state. The verified run
// then continues to the horizon; its summary fingerprint is
// bit-identical to an uninterrupted run's.
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
// instant, verifies the replayed state against the snapshot's digests,
// and runs on to the horizon, returning the completed summary. The
// fingerprint equals the uninterrupted run's.
func Resume(rd io.Reader) (Summary, error) {
	s, _, err := resume(rd, "", 0, nil)
	return s, err
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
		w:       world.New(wcfg, protocol.Factory(r.Protocol, r.Scenario.Traffic.Rate)),
		horizon: wcfg.Duration,
		desc: checkpoint.Descriptor{
			HorizonNs:     int64(wcfg.Duration),
			Protocol:      r.Protocol.String(),
			Seed:          r.Seed,
			MaxDurationNs: int64(r.MaxDuration),
			Scenario:      raw,
		},
	}, nil
}

// ckRunFromDescriptor rebuilds the world a snapshot's recipe describes.
func ckRunFromDescriptor(d checkpoint.Descriptor) (*ckRun, error) {
	proto, err := ParseProtocol(d.Protocol)
	if err != nil {
		return nil, fmt.Errorf("%w: descriptor: %v", ErrCheckpointCorrupt, err)
	}
	spec, err := scenario.ParseJSON(d.Scenario)
	if err != nil {
		return nil, fmt.Errorf("%w: descriptor scenario: %v", ErrCheckpointCorrupt, err)
	}
	return newScenarioCkRun(ScenarioRun{
		Scenario:    spec,
		Protocol:    proto,
		Seed:        d.Seed,
		MaxDuration: time.Duration(d.MaxDurationNs),
	})
}

// write captures the world's state at instant at and writes a complete
// snapshot to wr: the recipe verbatim, the state sections as digests.
func (c *ckRun) write(wr io.Writer, at time.Duration) error {
	digests, err := c.w.CaptureDigests()
	if err != nil {
		return err
	}
	d := c.desc
	d.AtNs = int64(at)
	desc, err := checkpoint.EncodeDescriptor(d)
	if err != nil {
		return err
	}
	all := append([]checkpoint.Section{{Tag: checkpoint.TagDesc, Payload: desc}}, digests...)
	return checkpoint.Write(wr, all)
}

// writeFile publishes a snapshot atomically and durably (see
// durable.Pending): a crash mid-write leaves the previous complete
// snapshot (if any) untouched, and a machine crash after it returns
// cannot roll the new one back.
func (c *ckRun) writeFile(path string, at time.Duration) error {
	f, err := durable.CreatePending(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := c.write(f, at); err != nil {
		return err
	}
	return f.Commit()
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
			// A failed write is never an interruption, stop signal or not:
			// there is no snapshot to resume.
			if err := c.writeFile(path, t); err != nil {
				return Summary{}, false, err
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
	// The decoder has bounded at_ns by the recorded horizon; a recorded
	// horizon this binary does not compile from the recipe would replay
	// to a different end.
	if stored := time.Duration(d.HorizonNs); stored != cr.horizon {
		return Summary{}, false, fmt.Errorf("%w: snapshot records horizon %v, its recipe compiles to %v", ErrCheckpointCorrupt, stored, cr.horizon)
	}
	cr.w.Start()
	at := time.Duration(d.AtNs)
	cr.w.RunTo(at)
	if err := verifyReplay(cr.w, secs); err != nil {
		return Summary{}, false, err
	}
	return cr.loop(at, path, every, stop)
}

// verifyReplay re-captures the replayed world and compares every state
// section's digest against the snapshot. The simulator being
// deterministic, any mismatch means the snapshot and this binary
// disagree about the run (corruption that survived the CRCs is
// practically impossible; the realistic causes are a changed binary or
// an edited descriptor) — resuming would continue a different run, so
// fail instead.
func verifyReplay(w *world.World, stored []checkpoint.Section) error {
	digests, err := w.CaptureDigests()
	if err != nil {
		return err
	}
	for _, s := range digests {
		got := checkpoint.Find(stored, s.Tag)
		if got == nil {
			return fmt.Errorf("%w: snapshot lacks section %s (version skew?)", ErrCheckpointCorrupt, s.Tag)
		}
		if len(got) != len(s.Payload) {
			return fmt.Errorf("%w: section %s holds %d bytes, want a %d-byte digest", ErrCheckpointCorrupt, s.Tag, len(got), len(s.Payload))
		}
		if !bytes.Equal(got, s.Payload) {
			return fmt.Errorf("%w: replayed state diverges from snapshot in section %s", ErrCheckpointCorrupt, s.Tag)
		}
	}
	return nil
}
