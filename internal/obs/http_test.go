package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlerServesLiveView exercises both endpoints while writer
// goroutines hammer attached registries and cells attach/detach — the
// exact shape of a batch run with -statsaddr. Run under -race this is
// the concurrency proof for the whole live surface.
func TestHandlerServesLiveView(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := NewRegistry()
				hub.Attach(r)
				for j := 0; j < 100; j++ {
					r.Inc(CEventsDispatched)
					r.GaugeAdd(GQueueDepth, 1)
					r.GaugeAdd(GQueueDepth, -1)
					r.Observe(HDelayNs, uint64(seed*1000+j))
					r.SetSimNow(time.Duration(j) * time.Millisecond)
				}
				hub.Detach(r)
			}
		}(w)
	}

	client := srv.Client()
	for i := 0; i < 25; i++ {
		resp, err := client.Get(srv.URL + "/stats.json")
		if err != nil {
			t.Fatalf("GET /stats.json: %v", err)
		}
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decoding /stats.json: %v", err)
		}
		resp.Body.Close()

		resp, err = client.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading /metrics: %v", err)
		}
		text := string(body)
		for _, want := range []string{
			"rica_events_dispatched_total ",
			"rica_queue_depth ",
			"rica_sim_now_seconds ",
			"rica_delay_p50_ns ",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("/metrics missing %q in:\n%s", want, text)
			}
		}
	}
	close(stop)
	wg.Wait()

	// After all cells detached, the folded totals must be a multiple of
	// one cell's contribution and every observation must be accounted for.
	s := hub.Snapshot()
	if s.EventsDispatched == 0 || s.EventsDispatched%100 != 0 {
		t.Fatalf("folded events = %d, want positive multiple of 100", s.EventsDispatched)
	}
	if s.DelayCount != s.EventsDispatched {
		t.Fatalf("folded delay count %d != events %d", s.DelayCount, s.EventsDispatched)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("folded queue depth = %d, want 0", s.QueueDepth)
	}
}
