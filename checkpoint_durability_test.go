package rica_test

import (
	"path/filepath"
	"testing"
	"time"

	"rica"
	"rica/internal/durable"
)

// TestCheckpointWriteSyncsDir: the atomic snapshot write (temp + fsync +
// rename) must also fsync the parent directory — without it a machine
// crash right after the rename can roll the directory entry back and
// lose the snapshot the process believed durable. Regression test for
// the missing-dir-sync gap; uses the durable package's test observer,
// so it must not run in parallel.
func TestCheckpointWriteSyncsDir(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	durable.OnSync = func(d string) { synced = append(synced, d) }
	defer func() { durable.OnSync = nil }()

	spec, err := rica.ScenarioByName("chain-10")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = rica.ScenarioDuration(4 * time.Second)
	path := filepath.Join(dir, "run.ckpt")
	mustRun(t, rica.ScenarioRun{
		Scenario: spec, Protocol: rica.ProtocolRICA, Seed: 3,
	}, rica.RunOptions{CheckpointPath: path, CheckpointEvery: time.Second})
	if len(synced) == 0 {
		t.Fatal("periodic snapshot writes never synced the checkpoint directory")
	}
	for _, d := range synced {
		if d != dir {
			t.Fatalf("synced unexpected directory %s (want only %s)", d, dir)
		}
	}
}
