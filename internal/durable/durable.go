// Package durable closes the last gap in the repo's atomic-write
// story: directory durability. Writing a temp file, fsyncing it, and
// renaming it over the target makes the *contents* crash-safe, but the
// rename itself lives in the parent directory's entries — until the
// directory is fsynced, a power cut can roll the rename back and the
// "atomically written" file simply is not there on reboot. The same
// applies to freshly created files (a journal's first open): the inode
// is durable, the directory entry pointing at it may not be.
//
// Rename and SyncFile bundle the missing directory sync with the
// operations that need it, so checkpoint snapshots and manifest
// journals survive not just process death but whole-machine crashes;
// Pending is the whole atomic-publish sequence built on Rename.
package durable

import (
	"os"
	"path/filepath"
)

// OnSync, when non-nil, observes every directory sync with the directory
// path. It exists so regression tests can prove the checkpoint and
// manifest write paths actually reach the directory sync; production
// code must never set it.
var OnSync func(dir string)

// SyncDir fsyncs the directory itself, making previously performed
// entry operations (renames, creates, unlinks) in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil && OnSync != nil {
		OnSync(dir)
	}
	return err
}

// Rename renames oldpath over newpath and fsyncs newpath's parent
// directory, so a crash immediately after Rename returns cannot lose
// the rename. The file at oldpath must already be fsynced by the
// caller (content durability and entry durability are separate).
func Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(newpath))
}

// SyncFile makes a freshly created (or appended) file fully durable:
// fsync the file, then fsync its parent directory so the entry that
// names it survives a crash too. Use after creating a file whose
// existence matters (a new journal), not on every append — appends to
// an already-durable entry only need the file sync.
func SyncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(f.Name()))
}

// Pending is a file that appears under its final name only once it is
// complete: bytes go to a temp file in the same directory, and Commit
// fsyncs it and renames it over path. A reader can therefore never see
// an empty or half-written file, and a crash mid-write leaves whatever
// was at path before untouched.
type Pending struct {
	*os.File
	path string
}

// CreatePending opens the temp file beside path, so an unwritable
// directory fails before any work is spent on the contents.
func CreatePending(path string) (*Pending, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &Pending{File: f, path: path}, nil
}

// Commit publishes the fully written file under its final name,
// durably: fsync, close, Rename.
func (p *Pending) Commit() error {
	// CreateTemp's 0600 is right for a scratch file, not for a result.
	err := p.Chmod(0o644)
	if err == nil {
		err = p.Sync()
	}
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return Rename(p.Name(), p.path)
}

// WriteFile publishes data at path as one Pending: a reader sees the
// previous file or all of data, and a crash after it returns keeps data.
func WriteFile(path string, data []byte) error {
	p, err := CreatePending(path)
	if err != nil {
		return err
	}
	defer p.Abort()
	if _, err := p.Write(data); err != nil {
		return err
	}
	return p.Commit()
}

// Abort discards the temp file. It is a no-op once Commit has renamed
// it, so it is safe to defer.
func (p *Pending) Abort() {
	// Both errors are expected after Commit (already closed, already
	// renamed away) and change nothing before it: nothing was published.
	_ = p.Close()
	_ = os.Remove(p.Name())
}
