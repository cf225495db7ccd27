package rica_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rica"
)

// TestOptionsAreObservers is the law RunOptions' comment states: on one
// short cell per protocol, under every subset of {timeline, trace,
// caller's registry, periodic snapshots}, Run returns the bare run's
// fingerprint — and so does Resume of the last snapshot the full set
// left behind, itself observed by the full set, with the timeline and
// the trace of the whole run.
func TestOptionsAreObservers(t *testing.T) {
	const horizon, cadence = 4 * time.Second, 1500 * time.Millisecond
	type observed struct {
		o    rica.RunOptions
		sink *rica.MemoryTimelineSink
	}
	// options builds the subset named by mask's four low bits.
	options := func(t *testing.T, mask int) observed {
		ob := observed{sink: &rica.MemoryTimelineSink{}}
		if mask&1 != 0 {
			ob.o.Telemetry = &rica.Telemetry{Interval: time.Second, Sink: ob.sink}
		}
		if mask&2 != 0 {
			ob.o.Trace = rica.NewTraceRecorder(64)
		}
		if mask&4 != 0 {
			ob.o.Obs = rica.NewObsRegistry()
		}
		if mask&8 != 0 {
			ob.o.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
			ob.o.CheckpointEvery = cadence
		}
		return ob
	}
	for _, p := range rica.AllProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			r := paperRun(t, p, 36, 10, horizon, 6)
			bare := mustRun(t, r, rica.RunOptions{})
			if bare.Delivered == 0 {
				t.Fatal("the cell delivers nothing; it cannot tell an observer from a participant")
			}
			want := rica.Fingerprint(bare)
			var full observed
			for mask := 1; mask < 16; mask++ {
				full = options(t, mask)
				if got := rica.Fingerprint(mustRun(t, r, full.o)); got != want {
					t.Errorf("options %04b moved the run\n got: %s\nwant: %s", mask, got, want)
				}
			}
			if full.o.Obs.Snapshot().EventsDispatched != bare.Events {
				t.Errorf("caller's registry counted %d events, the run dispatched %d", full.o.Obs.Snapshot().EventsDispatched, bare.Events)
			}
			// The file holds the snapshot of t=3 s, the last boundary short
			// of the horizon.
			again := options(t, 15)
			resumed, err := resumeFile(full.o.CheckpointPath, again.o)
			if err != nil {
				t.Fatalf("Resume under the full set: %v", err)
			}
			if got := rica.Fingerprint(resumed); got != want {
				t.Errorf("observed resume diverged\n got: %s\nwant: %s", got, want)
			}
			if !reflect.DeepEqual(again.sink.Runs, full.sink.Runs) || len(full.sink.Runs) != 1 {
				t.Errorf("a resumed run's timeline is not the run's: %d emitted against %d", len(again.sink.Runs), len(full.sink.Runs))
			}
			if got, want := again.o.Trace.Total(), full.o.Trace.Total(); got != want || want == 0 {
				t.Errorf("a resumed run's trace saw %d events, the run's %d", got, want)
			}
		})
	}
}

// surface is package rica's exported functions. A new one is added here
// on purpose: the package has one way to run (Run), one to continue
// (Resume), one harness over them (VerifyScenario) and the grid runners;
// an observer of a run is a RunOptions field, not another entry point.
var surface = []string{
	"AllProtocols", "CheckInvariants", "CheckTimelineInvariants", "Fingerprint",
	"LoadScenario", "NewCSVTimelineSink", "NewJSONLTimelineSink", "NewObsHub",
	"NewObsRegistry", "NewTraceRecorder", "PaperField", "ParseProtocol",
	"ParseScenario", "Quality", "Resume", "Run", "RunBatch",
	"ScenarioByName", "ScenarioNames", "Series", "Sweep", "VerifyScenario",
}

// TestPublicSurface pins the list above to the source.
func TestPublicSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				got = append(got, fn.Name.Name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, surface) {
		t.Errorf("package rica exports the functions\n  %s\nwant\n  %s\n"+
			"A run has one entry point; what observes it belongs in RunOptions. If the new function is meant, add it to surface.",
			fmt.Sprint(got), fmt.Sprint(surface))
	}
}
