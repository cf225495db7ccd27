package rica_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"rica"
	"rica/internal/checkpoint"
	"rica/internal/obs"
)

// TestStopLaw holds the one way a run ends early, in consensus-go's
// Start/Stop shape: a Run and a RunBatch of metro-500 × LinkState at its
// full horizon run side by side, and each one's Stop is closed once its
// own counters (RunOptions.Obs, BatchConfig.Hub) pass 10⁵ dispatched
// events. Each returns ErrInterrupted within 250 ms of the close, no
// goroutine outlives them, and the same runs under a Stop that never
// closes end with the bare run's fingerprint. Not parallel: it counts
// the process's goroutines.
func TestStopLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("two metro-500 × LinkState runs stopped mid-cell")
	}
	spec, err := rica.ScenarioByName("metro-500")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	stopMidCell := func(name string, events func() uint64, run func(stop <-chan struct{}) error) {
		defer wg.Done()
		stop := make(chan struct{})
		ran := make(chan error, 1)
		go func() { ran <- run(stop) }()
		for events() <= 100_000 {
			select {
			case err := <-ran:
				t.Errorf("%s returned before its stop closed: %v", name, err)
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(stop)
		closed := time.Now()
		err := <-ran
		took := time.Since(closed)
		t.Logf("%s returned %v after its stop closed", name, took)
		if took > 250*time.Millisecond {
			t.Errorf("%s returned %v after its stop closed, want within 250ms", name, took.Round(time.Millisecond))
		}
		if !errors.Is(err, rica.ErrInterrupted) {
			t.Errorf("%s: err = %v, want ErrInterrupted", name, err)
		}
	}
	reg, hub := rica.NewObsRegistry(), rica.NewObsHub()
	wg.Add(2)
	go stopMidCell("Run", func() uint64 { return reg.Snapshot().EventsDispatched }, func(stop <-chan struct{}) error {
		_, err := rica.Run(rica.ScenarioRun{Scenario: spec, Protocol: rica.ProtocolLinkState, Seed: 1},
			rica.RunOptions{Obs: reg, Stop: stop})
		return err
	})
	go stopMidCell("RunBatch", func() uint64 { return hub.Snapshot().EventsDispatched }, func(stop <-chan struct{}) error {
		res, err := rica.RunBatch(rica.BatchConfig{
			Scenarios: []rica.Scenario{spec}, Protocols: []rica.Protocol{rica.ProtocolLinkState},
			Trials: 1, Hub: hub, Stop: stop,
		})
		if err == nil || res.Cells[0].Scenario != "" {
			return fmt.Errorf("the stopped cell was kept as a result (err %v)", err)
		}
		return err
	})
	wg.Wait()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the stopped runs returned, %d before", runtime.NumGoroutine(), baseline)
			break
		}
	}

	// The never-closed half, at a 2 s horizon to keep it cheap.
	spec.Duration = rica.ScenarioDuration(2 * time.Second)
	r := rica.ScenarioRun{Scenario: spec, Protocol: rica.ProtocolLinkState, Seed: 1}
	want := rica.Fingerprint(mustRun(t, r, rica.RunOptions{}))
	never := make(chan struct{})
	if got := rica.Fingerprint(mustRun(t, r, rica.RunOptions{Stop: never})); got != want {
		t.Errorf("Run under an open Stop moved the run\n got: %s\nwant: %s", got, want)
	}
	res, err := rica.RunBatch(rica.BatchConfig{
		Scenarios: []rica.Scenario{spec}, Protocols: []rica.Protocol{rica.ProtocolLinkState}, Trials: 1, Stop: never,
	})
	if err != nil {
		t.Fatalf("RunBatch under an open Stop: %v", err)
	}
	if got := rica.Fingerprint(*res.Cells[0].Summary); got != want {
		t.Errorf("RunBatch under an open Stop moved the cell\n got: %s\nwant: %s", got, want)
	}
}

// TestCheckpointedStopLaw: a checkpointed Run stopped from outside at an
// arbitrary moment writes the snapshot of the instant its kernel stopped
// at — replaying the recipe to the snapshot's instant dispatches exactly
// the events the stopped run had, into the same kernel state — and
// Resume of that snapshot reaches the uninterrupted fingerprint. A seeded
// loop over short catalog cells picks the moment as a random count of
// dispatched events, which a watcher goroutine turns into a closed Stop;
// a run whose horizon comes first is drawn again.
func TestCheckpointedStopLaw(t *testing.T) {
	t.Parallel()
	iterations := 24
	if testing.Short() {
		iterations = 6
	}
	names := []string{"chain-10", "dense-urban", "jammer-grid", "partition-heal", "paper-baseline"}
	protocols := rica.AllProtocols()
	rng := rand.New(rand.NewSource(25))
	bare := map[string]rica.Summary{}
	stopped := 0
	for tries := 0; stopped < iterations; tries++ {
		if tries == 10*iterations {
			t.Fatalf("only %d of %d runs were stopped before their horizon", stopped, tries)
		}
		name, p := names[rng.Intn(len(names))], protocols[rng.Intn(len(protocols))]
		r := ckRun(t, name, p)
		key := fmt.Sprintf("%s/%s", name, p)
		base, ok := bare[key]
		if !ok {
			base = mustRun(t, r, rica.RunOptions{})
			bare[key] = base
		}
		after := 1 + uint64(rng.Int63n(int64(base.Events)-1))

		reg := rica.NewObsRegistry()
		stop, done := make(chan struct{}), make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for reg.Counter(obs.CEventsDispatched) < after {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
			close(stop)
		}()
		path := filepath.Join(t.TempDir(), "stopped.ckpt")
		_, err := rica.Run(r, rica.RunOptions{Obs: reg, CheckpointPath: path, Stop: stop})
		close(done)
		watcher.Wait()
		if err == nil {
			continue // the horizon came before the watcher saw the count
		}
		if !errors.Is(err, rica.ErrInterrupted) {
			t.Fatalf("%s stopped after %d events: err = %v, want ErrInterrupted", key, after, err)
		}
		stopped++
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		secs, err := checkpoint.Read(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		d, err := checkpoint.DecodeDescriptor(checkpoint.Find(secs, checkpoint.TagDesc))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		at := time.Duration(d.AtNs)

		w := startedWorld(t, name, p, 0, ckDuration)
		w.RunTo(at)
		if got, want := w.Kernel.Executed(), reg.Snapshot().EventsDispatched; got != want {
			t.Errorf("%s: the snapshot is of t=%v, by which a replay dispatches %d events; the stopped run had dispatched %d", key, at, got, want)
		}
		kern, err := w.CaptureDigests()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !bytes.Equal(checkpoint.Find(kern, checkpoint.TagKern), checkpoint.Find(secs, checkpoint.TagKern)) {
			t.Errorf("%s: the snapshot names t=%v, but its kernel state is not the replay's at that instant", key, at)
		}
		resumed, err := rica.Resume(bytes.NewReader(snap), rica.RunOptions{})
		if err != nil {
			t.Fatalf("%s: Resume of the snapshot of t=%v: %v", key, at, err)
		}
		if got, want := rica.Fingerprint(resumed), rica.Fingerprint(base); got != want {
			t.Errorf("%s: resumed from t=%v\n got: %s\nwant: %s", key, at, got, want)
		}
	}
}
