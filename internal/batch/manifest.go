package batch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"rica/internal/durable"
)

// The grid manifest is the batch engine's crash journal: an append-only
// JSON-Lines file recording every finished cell the moment it finishes,
// fsync'd per line so a killed process loses at most its in-flight
// cells. The first line is a header binding the journal to one exact
// grid (a signature over the scenario specs, protocols, trials and
// seeds); re-running that grid with the same manifest path
// restores journaled cells verbatim — cell rows JSON round-trip exactly
// (integers verbatim, floats by shortest representation), so a resumed
// batch's exported Result is byte-identical to an uninterrupted one —
// and recomputes only the rest. A manifest written by any other grid is
// rejected rather than silently mixed in.

// manifestFormat names the journal layout; bump on incompatible change.
const manifestFormat = "rica-batch-manifest-v1"

type manifestHeader struct {
	Format string `json:"format"`
	Grid   string `json:"grid"`
	Cells  int    `json:"cells"`
}

type manifestEntry struct {
	Index int        `json:"index"`
	Cell  CellResult `json:"cell"`
}

// manifest is the open journal; record appends one durable line.
type manifest struct {
	mu sync.Mutex
	f  *os.File
}

// gridSignature fingerprints the expanded grid: any change to the
// scenario specs, protocol set, trial count or seeds yields a
// different signature, so a stale journal can never resume the wrong
// grid.
func gridSignature(cells []cell, baseSeed int64, trials int) string {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("base=%d trials=%d cells=%d\n", baseSeed, trials, len(cells))
	for i := range cells {
		c := &cells[i]
		spec, err := json.Marshal(c.spec)
		if err != nil {
			// Specs compiled before expansion; Marshal of a compilable spec
			// cannot fail, but feed something signature-changing regardless.
			spec = []byte(err.Error())
		}
		w("%d %s %d %s\n", i, c.protocol, c.seed, spec)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openManifest opens (or creates) the journal at path for the grid with
// the given signature and cell count, returning the journal and every
// valid cell it already holds. A truncated final line — the signature
// of a crash mid-append — is tolerated and dropped; damage anywhere
// else, or a header from another grid, is an error.
func openManifest(path, sig string, cells int) (*manifest, map[int]CellResult, error) {
	restored := map[int]CellResult{}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh journal.
	case err != nil:
		return nil, nil, fmt.Errorf("batch: manifest: %w", err)
	case len(data) > 0:
		if err := readManifest(data, sig, cells, restored); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("batch: manifest: %w", err)
	}
	m := &manifest{f: f}
	if len(data) == 0 {
		hdr, err := json.Marshal(manifestHeader{Format: manifestFormat, Grid: sig, Cells: cells})
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := m.appendLine(hdr); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("batch: manifest: %w", err)
		}
		// A fresh journal is a new directory entry: sync the directory
		// too, or a machine crash can forget the file ever existed even
		// though every line in it was fsync'd.
		if err := durable.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("batch: manifest: %w", err)
		}
	}
	return m, restored, nil
}

// readManifest validates an existing journal against this grid and
// collects its cell rows.
func readManifest(data []byte, sig string, cells int, restored map[int]CellResult) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20) // cell rows with obs snapshots are long lines
	if !sc.Scan() {
		return fmt.Errorf("batch: manifest: empty or unreadable header")
	}
	var hdr manifestHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("batch: manifest: bad header: %w", err)
	}
	if hdr.Format != manifestFormat {
		return fmt.Errorf("batch: manifest format %q is not %q", hdr.Format, manifestFormat)
	}
	if hdr.Grid != sig || hdr.Cells != cells {
		return fmt.Errorf("batch: manifest belongs to a different grid (signature %s/%d cells, this grid is %s/%d); delete it or point Manifest elsewhere", hdr.Grid, hdr.Cells, sig, cells)
	}
	truncatedTail := !bytes.HasSuffix(data, []byte("\n"))
	for line := 1; sc.Scan(); line++ {
		var e manifestEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			// A crash mid-append can tear exactly one line: the file's
			// last, newline-less one. Drop it — its cell recomputes.
			// Damage anywhere else is real corruption.
			if !sc.Scan() && truncatedTail {
				return nil
			}
			return fmt.Errorf("batch: manifest line %d corrupt: %w", line+1, err)
		}
		if e.Index < 0 || e.Index >= cells {
			return fmt.Errorf("batch: manifest line %d indexes cell %d of %d", line+1, e.Index, cells)
		}
		if e.Cell.Poisoned() {
			// Quarantine rows are journaled for attribution but never
			// restored: a resume retries the cell (a transient stall may
			// pass now; a deterministic panic simply re-poisons). Last
			// line wins per index, so the retry's row supersedes this one.
			delete(restored, e.Index)
			continue
		}
		restored[e.Index] = e.Cell
	}
	return sc.Err()
}

// record journals one finished cell durably.
func (m *manifest) record(index int, c CellResult) error {
	line, err := json.Marshal(manifestEntry{Index: index, Cell: c})
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLine(line)
}

// appendLine writes line + "\n" and fsyncs. Callers hold mu (or have
// exclusive access during open).
func (m *manifest) appendLine(line []byte) error {
	if _, err := m.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return m.f.Sync()
}

func (m *manifest) Close() error { return m.f.Close() }
