package world_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"rica/internal/obs"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestLiveViewDuringRun holds the registry's one-writer contract in
// consensus-go's shape: run the real thing, then assert a law of what
// came out. A dense-urban × RICA world runs 5 s on this goroutine with
// its registry attached to a hub, while a second goroutine polls the
// hub. Every reading is one the kernel published: the event count and
// the clock never go back, no counter ever reads above the run's final
// Summary.Obs, and the poller sees the run move more than once. Once
// RunTo returns the hub is exact: it reads the kernel's own counts, and
// after Finish it equals Summary.Obs field for field. Under -race this
// is the proof that the live surfaces read only the published words.
func TestLiveViewDuringRun(t *testing.T) {
	spec, err := scenario.ByName("dense-urban")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 5 * time.Second
	cfg.Seed = 1
	cfg.Obs = obs.NewRegistry()
	hub := obs.NewHub()
	hub.Attach(cfg.Obs)

	done := make(chan struct{})
	polled := make(chan []obs.Snapshot)
	go func() {
		var seen []obs.Snapshot
		for {
			select {
			case <-done:
				polled <- seen
				return
			default:
			}
			if s := hub.Snapshot(); len(seen) == 0 || s != seen[len(seen)-1] {
				seen = append(seen, s)
			}
			runtime.Gosched()
		}
	}()

	w := world.New(cfg, protocol.Factory(protocol.RICA, cfg.FlowRate))
	w.Start()
	w.RunTo(cfg.Duration)
	close(done)
	seen := <-polled

	reg := cfg.Obs
	at := hub.Snapshot()
	if at.EventsDispatched != w.Kernel.Executed() || at.SimNowNs != int64(reg.SimNow()) ||
		at.EventsScheduled != reg.Counter(obs.CEventsScheduled) || at.QueueDepth != reg.Gauge(obs.GQueueDepth) {
		t.Errorf("after RunTo the hub reads %d events @%dns, %d scheduled, depth %d; the kernel's own words are %d @%dns, %d, %d",
			at.EventsDispatched, at.SimNowNs, at.EventsScheduled, at.QueueDepth,
			w.Kernel.Executed(), reg.SimNow(), reg.Counter(obs.CEventsScheduled), reg.Gauge(obs.GQueueDepth))
	}
	final := w.Finish().Obs
	if got := hub.Snapshot(); got != *final {
		t.Errorf("after Finish the hub reads\n%+v\nSummary.Obs is\n%+v", got, *final)
	}

	mid := map[uint64]bool{} // distinct event counts read while the run moved
	for i, s := range seen {
		if s.EventsDispatched > 0 && s.EventsDispatched < final.EventsDispatched {
			mid[s.EventsDispatched] = true
		}
		if i > 0 && (s.EventsDispatched < seen[i-1].EventsDispatched || s.SimNowNs < seen[i-1].SimNowNs) {
			t.Errorf("reading %d went back: %d events @%dns after %d @%dns",
				i, s.EventsDispatched, s.SimNowNs, seen[i-1].EventsDispatched, seen[i-1].SimNowNs)
		}
		if field, ok := exceeds(s, *final); ok {
			t.Errorf("reading %d has %s above the final Summary.Obs:\n%+v\n%+v", i, field, s, *final)
		}
	}
	if len(mid) < 2 {
		t.Errorf("%d distinct mid-run event counts of %d events, want at least 2", len(mid), final.EventsDispatched)
	}
	t.Logf("%d distinct readings, %d distinct mid-run event counts, of %d events", len(seen), len(mid), final.EventsDispatched)
}

// exceeds names a counter of s above its value in final. The gauge and
// the delay quantiles may move either way, so they are not compared.
func exceeds(s, final obs.Snapshot) (string, bool) {
	if s.SimNowNs > final.SimNowNs {
		return "sim_now_ns", true
	}
	sv, fv := reflect.ValueOf(s), reflect.ValueOf(final)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 || f.Name == "DelayP50Ns" || f.Name == "DelayP95Ns" {
			continue
		}
		if sv.Field(i).Uint() > fv.Field(i).Uint() {
			return f.Tag.Get("json"), true
		}
	}
	return "", false
}
