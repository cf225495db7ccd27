package rica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/durable"
	"rica/internal/scenario"
	"rica/internal/world"
)

// Checkpoint/resume. A snapshot is a versioned, self-describing binary
// file (see internal/checkpoint) holding the run's recipe, the capture
// instant, and one digest per section of the simulation state captured
// at that instant boundary: the kernel's live event schedule, every
// RNG stream's id and draw count, mobility legs, fading links, in-flight
// MAC transmissions and exchanges, link queues and route tables,
// workload cursors, and obs counters. Run writes them (see
// RunOptions.CheckpointPath); a snapshot's recipe is a ScenarioRun.
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
// ErrInterrupted is returned (wrapped) by Run and Resume when
// RunOptions.Stop ended the run early — when RunOptions.CheckpointPath
// is set, the snapshot of the instant it stopped at has been written
// there and can be resumed — and by RunBatch when BatchConfig.Stop ended
// the grid.
var ErrInterrupted = world.ErrInterrupted

// ErrCheckpointCorrupt wraps every snapshot integrity or verification
// failure, so callers can distinguish damage from I/O errors.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// Resume reads a snapshot, rebuilds and replays the run to the capture
// instant, verifies the replayed state against the snapshot's digests,
// and runs on to the horizon under the given options — the same ones Run
// takes, so a resumed run can keep checkpointing, be stopped again, or be
// observed from t=0. The completed summary's fingerprint equals the
// uninterrupted run's.
func Resume(rd io.Reader, o RunOptions) (Summary, error) {
	secs, err := checkpoint.Read(rd)
	if err != nil {
		return Summary{}, err
	}
	d, err := checkpoint.DecodeDescriptor(checkpoint.Find(secs, checkpoint.TagDesc))
	if err != nil {
		return Summary{}, err
	}
	proto, err := ParseProtocol(d.Protocol)
	if err != nil {
		return Summary{}, fmt.Errorf("%w: descriptor: %v", ErrCheckpointCorrupt, err)
	}
	spec, err := scenario.ParseJSON(d.Scenario)
	if err != nil {
		return Summary{}, fmt.Errorf("%w: descriptor scenario: %v", ErrCheckpointCorrupt, err)
	}
	r := ScenarioRun{
		Scenario:    spec,
		Protocol:    proto,
		Seed:        d.Seed,
		MaxDuration: time.Duration(d.MaxDurationNs),
	}
	return execute(r, o, &snapshot{
		at:       time.Duration(d.AtNs),
		horizon:  time.Duration(d.HorizonNs),
		sections: secs,
	})
}

// snapshot is what Resume hands the run loop: the capture instant, the
// horizon the writer recorded, and the stored sections to verify the
// replay against.
type snapshot struct {
	at, horizon time.Duration
	sections    []checkpoint.Section
}

// descriptor is the run's recipe as a snapshot stores it (AtNs is
// filled per snapshot).
func (r ScenarioRun) descriptor(horizon time.Duration) (checkpoint.Descriptor, error) {
	raw, err := json.Marshal(r.Scenario)
	if err != nil {
		return checkpoint.Descriptor{}, err
	}
	return checkpoint.Descriptor{
		HorizonNs:     int64(horizon),
		Protocol:      r.Protocol.String(),
		Seed:          r.Seed,
		MaxDurationNs: int64(r.MaxDuration),
		Scenario:      raw,
	}, nil
}

// writeSnapshot captures w's state at instant at and publishes a complete
// snapshot — the recipe verbatim, the state sections as digests —
// atomically and durably (see durable.Pending): a crash mid-write leaves
// the previous complete snapshot (if any) untouched, and a machine crash
// after it returns cannot roll the new one back.
func writeSnapshot(w *world.World, recipe checkpoint.Descriptor, path string, at time.Duration) error {
	digests, err := w.CaptureDigests()
	if err != nil {
		return err
	}
	recipe.AtNs = int64(at)
	desc, err := checkpoint.EncodeDescriptor(recipe)
	if err != nil {
		return err
	}
	f, err := durable.CreatePending(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	all := append([]checkpoint.Section{{Tag: checkpoint.TagDesc, Payload: desc}}, digests...)
	if err := checkpoint.Write(f, all); err != nil {
		return err
	}
	return f.Commit()
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
