package batch

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// setCellHook installs the test-only per-cell hook; hook-using tests
// must not run in parallel with each other.
func setCellHook(t *testing.T, fn func(scenarioName string, p protocol.Protocol, seed int64)) {
	t.Helper()
	testCellHook = fn
	t.Cleanup(func() { testCellHook = nil })
}

// scenarioSpecList is the fast one-scenario grid the resilience tests
// share (a 2 s static chain; each healthy cell runs in milliseconds).
func scenarioSpecList(t *testing.T) []scenario.Spec {
	t.Helper()
	return []scenario.Spec{testSpec(2 * time.Second)}
}

// TestBatchPanicQuarantine: a cell that panics is quarantined with grid
// attribution and its stack, the rest of the grid completes, and the
// aggregates exclude the poisoned row.
func TestBatchPanicQuarantine(t *testing.T) {
	setCellHook(t, func(name string, p protocol.Protocol, seed int64) {
		if p == protocol.AODV && seed == 2 {
			panic("injected cell failure")
		}
	})
	res, err := Run(Config{
		Scenarios: scenarioSpecList(t),
		Protocols: []protocol.Protocol{protocol.RICA, protocol.AODV},
		Trials:    2,
		Workers:   4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", res.Poisoned)
	}
	var poisoned *CellResult
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Poisoned() {
			poisoned = c
		} else if c.Generated == 0 {
			t.Errorf("healthy cell %s/%s/%d generated nothing", c.Scenario, c.Protocol, c.Seed)
		}
	}
	if poisoned == nil {
		t.Fatal("no poisoned cell in results")
	}
	if poisoned.Protocol != "AODV" || poisoned.Seed != 2 {
		t.Errorf("poison attributed to %s/%d, want AODV/2", poisoned.Protocol, poisoned.Seed)
	}
	if !strings.Contains(poisoned.Error, "injected cell failure") {
		t.Errorf("poison error = %q, want the panic value", poisoned.Error)
	}
	if !strings.Contains(poisoned.Stack, "runCellAttempt") && poisoned.Stack == "" {
		t.Errorf("poison carries no stack")
	}
	for _, a := range res.Aggregates {
		if a.Protocol == "AODV" && a.Trials != 1 {
			t.Errorf("AODV aggregate counts %d trials, want 1 (poisoned cell excluded)", a.Trials)
		}
	}
}

// TestBatchManifestResume: a finished grid re-run against its manifest
// recomputes zero cells and exports byte-identical rows and aggregates.
func TestBatchManifestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.manifest")
	cfg := Config{
		Scenarios: scenarioSpecList(t),
		Protocols: []protocol.Protocol{protocol.RICA, protocol.ABR},
		Trials:    2,
		Workers:   3,
		Manifest:  path,
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if first.Restored != 0 {
		t.Fatalf("first run Restored = %d", first.Restored)
	}
	var computed atomic.Int32
	setCellHook(t, func(string, protocol.Protocol, int64) { computed.Add(1) })
	second, err := Run(cfg)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if n := computed.Load(); n != 0 {
		t.Errorf("resume recomputed %d cells, want 0", n)
	}
	if second.Restored != len(first.Cells) {
		t.Errorf("Restored = %d, want %d", second.Restored, len(first.Cells))
	}
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := mustJSON(second.Cells), mustJSON(first.Cells); got != want {
		t.Errorf("restored cells are not byte-identical\n got: %.200s\nwant: %.200s", got, want)
	}
	if got, want := mustJSON(second.Aggregates), mustJSON(first.Aggregates); got != want {
		t.Errorf("restored aggregates are not byte-identical")
	}
}

// TestBatchInterruptThenManifestResume: Stop ends a batch mid-grid with
// world.ErrInterrupted; re-running with the manifest restores exactly the
// journaled cells and computes only the remainder.
func TestBatchInterruptThenManifestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.manifest")
	stop := make(chan struct{})
	var stopOnce atomic.Bool
	cfg := Config{
		Scenarios: scenarioSpecList(t),
		Protocols: []protocol.Protocol{protocol.RICA, protocol.BGCA},
		Trials:    3,
		Workers:   1,
		Manifest:  path,
		Stop:      stop,
		OnProgress: func(p Progress) {
			if p.Done >= 2 && stopOnce.CompareAndSwap(false, true) {
				close(stop)
			}
		},
	}
	partial, err := Run(cfg)
	if !errors.Is(err, world.ErrInterrupted) {
		t.Fatalf("interrupted Run err = %v, want ErrInterrupted", err)
	}
	journaled := 0
	for _, c := range partial.Cells {
		if c.Scenario != "" {
			journaled++
		}
	}
	if journaled == 0 || journaled == len(partial.Cells) {
		t.Fatalf("interrupt landed at %d/%d finished cells; wanted a partial grid", journaled, len(partial.Cells))
	}
	var computed atomic.Int32
	setCellHook(t, func(string, protocol.Protocol, int64) { computed.Add(1) })
	cfg.Stop = nil
	cfg.OnProgress = nil
	full, err := Run(cfg)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if full.Restored != journaled {
		t.Errorf("Restored = %d, want %d", full.Restored, journaled)
	}
	if got, want := int(computed.Load()), len(full.Cells)-journaled; got != want {
		t.Errorf("resume computed %d cells, want %d", got, want)
	}
	if full.Poisoned != 0 {
		t.Errorf("Poisoned = %d after clean resume", full.Poisoned)
	}
}

// TestBatchManifestRejectsForeignGrid: a journal written by one grid
// must not resume a different one.
func TestBatchManifestRejectsForeignGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.manifest")
	cfg := Config{
		Scenarios: scenarioSpecList(t),
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    1,
		Manifest:  path,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	other := cfg
	other.BaseSeed = 7 // different grid, same manifest path
	if _, err := Run(other); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign-grid resume err = %v, want grid-signature rejection", err)
	}
}

// TestBatchManifestToleratesTornTail: a crash mid-append leaves a
// newline-less partial final line; resume drops it and recomputes that
// cell only. Damage to an interior line is corruption and refuses.
func TestBatchManifestToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.manifest")
	cfg := Config{
		Scenarios: scenarioSpecList(t),
		Protocols: []protocol.Protocol{protocol.RICA},
		Trials:    2,
		Manifest:  path,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	// Tear the tail: append half a JSON object with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":1,"cell":{"scena`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if res.Restored != len(res.Cells) {
		t.Errorf("Restored = %d, want %d (torn tail should not cost valid lines)", res.Restored, len(res.Cells))
	}
	// Now corrupt an interior line: that is not a torn tail, so refuse.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("manifest has %d lines, want >= 3", len(lines))
	}
	lines[1] = "{broken json}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("interior corruption err = %v, want corruption rejection", err)
	}
}

// TestBatchManifestExcludesTelemetry: the two are mutually exclusive.
func TestBatchManifestExcludesTelemetry(t *testing.T) {
	_, err := Run(Config{
		Scenarios: scenarioSpecList(t),
		Manifest:  filepath.Join(t.TempDir(), "m"),
		Telemetry: &Telemetry{Sink: nil},
	})
	if err == nil {
		t.Fatal("Run accepted Manifest together with Telemetry")
	}
}
