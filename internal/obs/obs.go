// Package obs is the simulator's zero-allocation runtime observability
// core: a fixed-slot registry of atomic counters, gauges, and log-bucketed
// streaming histograms that every hot subsystem records into without
// allocating and without perturbing determinism. Counters never consult a
// RNG and never change event order — they are write-only from the single
// simulation goroutine and read concurrently (hence the atomics) by the
// live surfaces: the CLI heartbeat, the HTTP stats endpoint, and the
// batch progress reporter.
//
// All record methods are nil-receiver safe, so a component wired without
// a registry (the sim.Kernel zero value, a standalone channel model) pays
// only a predictable branch.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter identifies one fixed counter slot. Slots are registered here,
// at compile time, rather than by name at runtime: the hot-path record is
// an array index plus an atomic add, with no map, no interning, and no
// allocation.
type Counter int

// The counter slots, grouped by owning subsystem.
const (
	// Kernel: the discrete-event core.
	CEventsDispatched Counter = iota // handlers actually run
	CEventsScheduled                 // timers enqueued
	CTimersCancelled                 // timers annulled before firing
	CQueueCompactions                // ladder scrubs of cancelled entries
	CLadderFarPushes                 // events past the ladder horizon (far heap)
	// Channel fast path: the PR 5 caches.
	CClassHits     // per-instant pair class answered from cache
	CClassMisses   // pair class derived from fading + quantizer
	CDistMisses    // exact pair distance derived from positions (not cached)
	CGridRebuilds  // spatial index rebuilt for a new instant
	CAnnulusChecks // stale-grid candidates resolved by exact distance
	// MAC.
	CMACBackoffs   // common-channel sends deferred by carrier sense
	CMACCollisions // receptions suppressed by collision
	// Routing.
	CFloodSuppressed // flood copies dropped as duplicate/non-improving
	CHistorySpills   // history entries too wide for the packed table
	CSPTRecomputes   // link-state shortest-path tree rebuilds
	// Traffic and end-of-run accounting.
	CTrafficGenerated // data packets originated by the workload
	CGossipInfections // gossip rumor infections (first receipt per terminal × rumor)
	CDrainReleased    // pooled packets freed by the end-of-run drain
	CDrainData        // the data-packet subset of CDrainReleased (in flight at the horizon)
	// Adversarial tier (PR 8).
	CAdversaryDrops // transit data packets discarded by byzantine droppers
	CJamTransmitted // adversarial noise bursts put on the common channel

	// NumCounters sizes the registry; it is not a valid slot.
	NumCounters
)

// Gauge identifies one fixed signed gauge slot.
type Gauge int

// The gauge slots.
const (
	// GQueueDepth is the kernel's live timer count (scheduled − fired −
	// cancelled).
	GQueueDepth Gauge = iota

	// NumGauges sizes the registry; it is not a valid slot.
	NumGauges
)

// Hist identifies one fixed histogram slot.
type Hist int

// The histogram slots.
const (
	// HDelayNs observes end-to-end data delivery delay in nanoseconds.
	HDelayNs Hist = iota

	// NumHists sizes the registry; it is not a valid slot.
	NumHists
)

// counterNames are the Prometheus-facing slot names, in slot order.
var counterNames = [NumCounters]string{
	CEventsDispatched: "events_dispatched",
	CEventsScheduled:  "events_scheduled",
	CTimersCancelled:  "timers_cancelled",
	CQueueCompactions: "queue_compactions",
	CLadderFarPushes:  "ladder_far_pushes",
	CClassHits:        "chan_class_hits",
	CClassMisses:      "chan_class_misses",
	CDistMisses:       "chan_dist_misses",
	CGridRebuilds:     "chan_grid_rebuilds",
	CAnnulusChecks:    "chan_annulus_checks",
	CMACBackoffs:      "mac_backoffs",
	CMACCollisions:    "mac_collisions",
	CFloodSuppressed:  "route_flood_suppressed",
	CHistorySpills:    "route_history_spills",
	CSPTRecomputes:    "route_spt_recomputes",
	CTrafficGenerated: "traffic_generated",
	CGossipInfections: "gossip_infections",
	CDrainReleased:    "drain_released",
	CDrainData:        "drain_data_released",
	CAdversaryDrops:   "adversary_drops",
	CJamTransmitted:   "mac_jam_transmitted",
}

// gaugeNames are the Prometheus-facing gauge names, in slot order.
var gaugeNames = [NumGauges]string{
	GQueueDepth: "queue_depth",
}

// Registry is one simulation run's observability state: every slot is
// fixed at construction, every record is an atomic on a preallocated
// array. One registry per world keeps parallel batch cells off each
// other's cache lines; a Hub folds them for the live aggregate view.
type Registry struct {
	counters [NumCounters]atomic.Uint64
	gauges   [NumGauges]atomic.Int64
	hists    [NumHists]Histogram
	simNow   atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Inc adds one to a counter. Safe on a nil registry.
func (r *Registry) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// Add adds n to a counter (wrapping modulo 2^64, like any uint64). Safe
// on a nil registry.
func (r *Registry) Add(c Counter, n uint64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Counter reads a counter. A nil registry reads zero.
func (r *Registry) Counter(c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// GaugeAdd moves a gauge by delta (which may be negative). Safe on a nil
// registry.
func (r *Registry) GaugeAdd(g Gauge, delta int64) {
	if r == nil {
		return
	}
	r.gauges[g].Add(delta)
}

// Gauge reads a gauge. A nil registry reads zero.
func (r *Registry) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// Observe records a value into a histogram. Safe on a nil registry.
func (r *Registry) Observe(h Hist, v uint64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// Histogram exposes a histogram slot for direct reads (count, sum).
// A nil registry returns nil, whose methods are in turn nil-safe.
func (r *Registry) Histogram(h Hist) *Histogram {
	if r == nil {
		return nil
	}
	return &r.hists[h]
}

// SetSimNow publishes the simulation clock for concurrent readers. The
// kernel stores it on every dispatch. Safe on a nil registry.
func (r *Registry) SetSimNow(now time.Duration) {
	if r == nil {
		return
	}
	r.simNow.Store(int64(now))
}

// SimNow reads the last published simulation instant.
func (r *Registry) SimNow() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.simNow.Load())
}

// Snapshot captures the registry into the deterministic export form.
func (r *Registry) Snapshot() Snapshot {
	var f fold
	f.absorb(r)
	return f.snapshot()
}

// Histogram bucket geometry: values below histSmall are counted exactly;
// above, each power-of-two octave is split into histSub log-spaced
// sub-buckets, so the bucket midpoint is within 1/(2·histSub) ≈ 1.6 % of
// any value it covers. The layout is fixed-size for the full uint64
// range — no resizing, no allocation, ever.
const (
	histSmall   = 64
	histSub     = 32
	histBuckets = histSmall + (63-5)*histSub // max shift is 64-6 = 58 octaves
)

// bucketIdx maps a value to its bucket.
func bucketIdx(v uint64) int {
	if v < histSmall {
		return int(v)
	}
	shift := bits.Len64(v) - 6 // ≥ 1 here
	return histSmall + (shift-1)*histSub + int(v>>uint(shift)) - histSub
}

// bucketMid is the representative (midpoint) value of a bucket.
func bucketMid(idx int) uint64 {
	if idx < histSmall {
		return uint64(idx)
	}
	shift := (idx-histSmall)/histSub + 1
	sub := (idx - histSmall) % histSub
	lo := uint64(histSub+sub) << uint(shift)
	return lo + uint64(1)<<uint(shift)/2
}

// Histogram is a fixed-size log-bucketed streaming histogram. Observes
// are one atomic add; quantiles are a scan over the bucket array (see
// fold.quantile, which every export and live surface reads). All methods
// are nil-receiver safe.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot is the deterministic export form: fixed fields only — no
// maps, no reflection-ordered output — so embedding it in batch results
// or BENCH JSON never introduces run-to-run noise.
type Snapshot struct {
	SimNowNs int64 `json:"sim_now_ns"`

	EventsDispatched uint64 `json:"events_dispatched"`
	EventsScheduled  uint64 `json:"events_scheduled"`
	TimersCancelled  uint64 `json:"timers_cancelled"`
	QueueCompactions uint64 `json:"queue_compactions"`
	LadderFarPushes  uint64 `json:"ladder_far_pushes"`

	ClassHits     uint64 `json:"chan_class_hits"`
	ClassMisses   uint64 `json:"chan_class_misses"`
	DistMisses    uint64 `json:"chan_dist_misses"`
	GridRebuilds  uint64 `json:"chan_grid_rebuilds"`
	AnnulusChecks uint64 `json:"chan_annulus_checks"`

	MACBackoffs   uint64 `json:"mac_backoffs"`
	MACCollisions uint64 `json:"mac_collisions"`

	FloodSuppressed uint64 `json:"route_flood_suppressed"`
	HistorySpills   uint64 `json:"route_history_spills"`
	SPTRecomputes   uint64 `json:"route_spt_recomputes"`

	TrafficGenerated uint64 `json:"traffic_generated"`
	GossipInfections uint64 `json:"gossip_infections"`
	DrainReleased    uint64 `json:"drain_released"`
	DrainData        uint64 `json:"drain_data_released"`
	AdversaryDrops   uint64 `json:"adversary_drops"`
	JamTransmitted   uint64 `json:"mac_jam_transmitted"`

	QueueDepth int64 `json:"queue_depth"`

	DelayCount uint64 `json:"delay_count"`
	DelayP50Ns uint64 `json:"delay_p50_ns"`
	DelayP95Ns uint64 `json:"delay_p95_ns"`
}

// counter maps a slot to the snapshot's field, in slot order.
func (s *Snapshot) counter(c Counter) *uint64 {
	switch c {
	case CEventsDispatched:
		return &s.EventsDispatched
	case CEventsScheduled:
		return &s.EventsScheduled
	case CTimersCancelled:
		return &s.TimersCancelled
	case CQueueCompactions:
		return &s.QueueCompactions
	case CLadderFarPushes:
		return &s.LadderFarPushes
	case CClassHits:
		return &s.ClassHits
	case CClassMisses:
		return &s.ClassMisses
	case CDistMisses:
		return &s.DistMisses
	case CGridRebuilds:
		return &s.GridRebuilds
	case CAnnulusChecks:
		return &s.AnnulusChecks
	case CMACBackoffs:
		return &s.MACBackoffs
	case CMACCollisions:
		return &s.MACCollisions
	case CFloodSuppressed:
		return &s.FloodSuppressed
	case CHistorySpills:
		return &s.HistorySpills
	case CSPTRecomputes:
		return &s.SPTRecomputes
	case CTrafficGenerated:
		return &s.TrafficGenerated
	case CGossipInfections:
		return &s.GossipInfections
	case CDrainReleased:
		return &s.DrainReleased
	case CDrainData:
		return &s.DrainData
	case CAdversaryDrops:
		return &s.AdversaryDrops
	case CJamTransmitted:
		return &s.JamTransmitted
	}
	panic("obs: unknown counter slot")
}

// effortCounters say how an answer was computed, not what it was: cache
// hits and misses, exact checks, index rebuilds. A pure optimisation of
// the channel layer moves them and nothing else, so they belong on every
// surface that reports a run (exports, /stats.json) and in no surface
// that witnesses one. chan_class_misses is not among them: a class miss
// is a fading link advanced, which is simulated state.
var effortCounters = [...]Counter{
	CClassHits, CDistMisses, CGridRebuilds, CAnnulusChecks,
}

// ZeroEffort clears the effort counters, leaving what a determinism
// witness (the checkpoint's OBSC section) may compare across binaries.
func (s *Snapshot) ZeroEffort() {
	for _, c := range effortCounters {
		*s.counter(c) = 0
	}
}

// fold is the summation form shared by Registry.Snapshot and the Hub:
// plain arrays a single reader accumulates registries into.
type fold struct {
	c          [NumCounters]uint64
	g          [NumGauges]int64
	delay      [histBuckets]uint64
	delayCount uint64
	simNow     int64 // max across registries
}

// absorb adds one registry's current state into the fold.
func (f *fold) absorb(r *Registry) {
	if r == nil {
		return
	}
	for i := range f.c {
		f.c[i] += r.counters[i].Load()
	}
	for i := range f.g {
		f.g[i] += r.gauges[i].Load()
	}
	h := &r.hists[HDelayNs]
	for i := range f.delay {
		f.delay[i] += h.buckets[i].Load()
	}
	f.delayCount += h.count.Load()
	if now := r.simNow.Load(); now > f.simNow {
		f.simNow = now
	}
}

// quantile approximates the q-th quantile (0 ≤ q ≤ 1) of the folded delay
// buckets with the nearest-rank convention of metrics.Quantile, returning
// the midpoint of the bucket holding that rank. Zero when empty. The
// midpoint is within 1/(2·histSub) ≈ 1.6 % of every sample the bucket
// absorbed, so the approximation differs from the exact nearest-rank
// sample by at most ~3.2 % relative (two midpoint half-widths) plus any
// rank ties.
func (f *fold) quantile(q float64) uint64 {
	if f.delayCount == 0 {
		return 0
	}
	rank := uint64(q*float64(f.delayCount-1) + 0.5)
	var cum uint64
	for i := range f.delay {
		cum += f.delay[i]
		if cum > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// snapshot converts the fold into the export form.
func (f *fold) snapshot() Snapshot {
	var s Snapshot
	s.SimNowNs = f.simNow
	for c := Counter(0); c < NumCounters; c++ {
		*s.counter(c) = f.c[c]
	}
	s.QueueDepth = f.g[GQueueDepth]
	s.DelayCount = f.delayCount
	s.DelayP50Ns = f.quantile(0.50)
	s.DelayP95Ns = f.quantile(0.95)
	return s
}
