package rica

import "time"

// SnapshotAt writes to path the snapshot a checkpointed Run of r writes
// when its Stop ends it at instant at: Run's world and recipe, driven to
// at, captured by Run's writer. A stop closed from outside lands on
// whatever instant the kernel has reached; the tests that pin bytes need
// one they choose.
func SnapshotAt(r ScenarioRun, path string, at time.Duration) error {
	w, recipe, err := r.start(RunOptions{CheckpointPath: path})
	if err != nil {
		return err
	}
	w.RunTo(at)
	return writeSnapshot(w, recipe, path, at)
}
