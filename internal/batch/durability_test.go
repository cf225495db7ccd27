package batch

import (
	"path/filepath"
	"testing"
	"time"

	"rica/internal/durable"
	"rica/internal/protocol"
	"rica/internal/scenario"
)

// TestManifestCreationSyncsDir: creating a fresh manifest journal must
// fsync the parent directory, or a machine crash can forget the rename
// chain that made the journal exist at all. Regression test for the
// missing-dir-sync durability gap; uses the durable package's test
// observer, so it must not run in parallel with other sync users.
func TestManifestCreationSyncsDir(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	durable.OnSync = func(d string) { synced = append(synced, d) }
	defer func() { durable.OnSync = nil }()

	_, err := Run(Config{
		Scenarios: []scenario.Spec{testSpec(2 * time.Second)},
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    1,
		Manifest:  filepath.Join(dir, "grid.manifest"),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, d := range synced {
		if d == dir {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresh manifest did not sync its directory; synced = %v", synced)
	}

	// Re-opening an existing journal appends only — no new entry, no
	// extra directory sync required (and none should happen).
	synced = nil
	if _, err := Run(Config{
		Scenarios: []scenario.Spec{testSpec(2 * time.Second)},
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    1,
		Manifest:  filepath.Join(dir, "grid.manifest"),
	}); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if len(synced) != 0 {
		t.Fatalf("append-only reopen synced %v, want none", synced)
	}
}
