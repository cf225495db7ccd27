package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// observeSyncs installs an OnSync observer collecting synced directory
// paths; tests using it must not run in parallel.
func observeSyncs(t *testing.T) *[]string {
	t.Helper()
	var dirs []string
	OnSync = func(dir string) { dirs = append(dirs, dir) }
	t.Cleanup(func() { OnSync = nil })
	return &dirs
}

func TestRenameSyncsParentDir(t *testing.T) {
	dirs := observeSyncs(t)
	dir := t.TempDir()
	tmp := filepath.Join(dir, "x.tmp")
	dst := filepath.Join(dir, "x")
	if err := os.WriteFile(tmp, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rename(tmp, dst); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	data, err := os.ReadFile(dst)
	if err != nil || string(data) != "payload" {
		t.Fatalf("renamed file: %q, %v", data, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file still present: %v", err)
	}
	if len(*dirs) != 1 || (*dirs)[0] != dir {
		t.Fatalf("synced dirs = %v, want exactly [%s]", *dirs, dir)
	}
}

func TestSyncFileSyncsParentDir(t *testing.T) {
	dirs := observeSyncs(t)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("header\n"); err != nil {
		t.Fatal(err)
	}
	if err := SyncFile(f); err != nil {
		t.Fatalf("SyncFile: %v", err)
	}
	if len(*dirs) != 1 || (*dirs)[0] != dir {
		t.Fatalf("synced dirs = %v, want exactly [%s]", *dirs, dir)
	}
}

func TestSyncDirMissing(t *testing.T) {
	if err := SyncDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}

func TestRenameFailureDoesNotSync(t *testing.T) {
	dirs := observeSyncs(t)
	dir := t.TempDir()
	if err := Rename(filepath.Join(dir, "missing"), filepath.Join(dir, "dst")); err == nil {
		t.Fatal("Rename of a missing file succeeded")
	}
	if len(*dirs) != 0 {
		t.Fatalf("failed rename still synced %v", *dirs)
	}
}

// TestPendingCommitPublishes: nothing exists under the final name until
// Commit, which publishes the complete contents 0644, leaves no temp
// file behind, and reaches the directory sync; a later Abort (the
// deferred call) does not touch the published file.
func TestPendingCommitPublishes(t *testing.T) {
	dirs := observeSyncs(t)
	dir := t.TempDir()
	dst := filepath.Join(dir, "out")
	if err := os.WriteFile(dst, []byte("previous"), 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := CreatePending(dst)
	if err != nil {
		t.Fatalf("CreatePending: %v", err)
	}
	defer p.Abort()
	if _, err := p.WriteString("complete"); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(dst); string(data) != "previous" {
		t.Fatalf("target reads %q before Commit, want the previous contents", data)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	p.Abort()
	data, err := os.ReadFile(dst)
	if err != nil || string(data) != "complete" {
		t.Fatalf("published file: %q, %v", data, err)
	}
	if fi, err := os.Stat(dst); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("published mode = %v, %v; want 0644", fi.Mode().Perm(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Commit, want only the target", len(entries))
	}
	if len(*dirs) != 1 || (*dirs)[0] != dir {
		t.Fatalf("synced dirs = %v, want exactly [%s]", *dirs, dir)
	}
}

// TestPendingAbortRemovesTemp: an abandoned write leaves neither a temp
// file nor a target behind.
func TestPendingAbortRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	p, err := CreatePending(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatalf("CreatePending: %v", err)
	}
	if _, err := p.WriteString("half"); err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("directory holds %d entries after Abort, want none", len(entries))
	}
	if _, err := CreatePending(filepath.Join(dir, "missing", "out")); err == nil {
		t.Fatal("CreatePending in a missing directory succeeded")
	}
}
