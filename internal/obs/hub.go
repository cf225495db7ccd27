// The Hub is the live aggregate view: a process holds one hub, attaches
// each running world's registry to it, and the heartbeat/HTTP surfaces
// snapshot the hub instead of any single run. The hub reads only what
// each registry last published. Detaching folds a registry's final
// totals into the hub so completed batch cells keep counting toward the
// aggregate.

package obs

import (
	"fmt"
	"io"
	"sync"
)

// Hub aggregates registries for the live surfaces. The zero value is not
// usable; construct with NewHub. All methods are safe for concurrent use.
type Hub struct {
	mu     sync.Mutex
	active map[*Registry]struct{}
	done   fold // totals folded in from detached registries
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{active: make(map[*Registry]struct{})}
}

// Attach registers a running world's registry with the live view. Safe
// on a nil hub (standalone runs that never asked for live surfaces).
func (h *Hub) Attach(r *Registry) {
	if h == nil || r == nil {
		return
	}
	h.mu.Lock()
	h.active[r] = struct{}{}
	h.mu.Unlock()
}

// Detach removes a registry, folding its final totals into the hub's
// running aggregate. It publishes the registry first, so call it from
// the registry's owner goroutine, once its run has stopped. Safe on a
// nil hub.
func (h *Hub) Detach(r *Registry) {
	if h == nil || r == nil {
		return
	}
	r.Publish()
	h.mu.Lock()
	if _, ok := h.active[r]; ok {
		delete(h.active, r)
		h.done.absorb(r)
	}
	h.mu.Unlock()
}

// collect folds the finished totals with every active registry's last
// publication.
func (h *Hub) collect() fold {
	h.mu.Lock()
	f := h.done
	for r := range h.active {
		f.absorb(r)
	}
	h.mu.Unlock()
	return f
}

// Snapshot captures the aggregate view.
func (h *Hub) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	f := h.collect()
	return f.snapshot()
}

// WriteProm writes the aggregate in Prometheus text exposition format
// (counters as *_total, gauges bare), in fixed slot order.
func (h *Hub) WriteProm(w io.Writer) error {
	if h == nil {
		return nil
	}
	f := h.collect()
	for c := Counter(0); c < NumCounters; c++ {
		if _, err := fmt.Fprintf(w, "rica_%s_total %d\n", counterNames[c], f.c[c]); err != nil {
			return err
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if _, err := fmt.Fprintf(w, "rica_%s %d\n", gaugeNames[g], f.g[g]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "rica_sim_now_seconds %g\n", float64(f.simNow)/1e9); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "rica_delay_count %d\nrica_delay_p50_ns %d\nrica_delay_p95_ns %d\n",
		f.delayCount, f.quantile(0.50), f.quantile(0.95))
	return err
}
