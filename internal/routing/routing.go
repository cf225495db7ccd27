// Package routing holds the machinery shared by the five protocol
// implementations: route tables with idle expiry, flood duplicate
// suppression, pending-packet buffers for packets awaiting discovery,
// rebroadcast jitter, and a Dijkstra solver for the link-state baseline.
package routing

import (
	"math/rand"
	"sort"
	"time"

	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
)

// Tunables shared across protocols. Values follow the paper where it
// specifies them (40 ms source collection window, 1 s idle route expiry)
// and common MANET practice elsewhere.
const (
	// CollectWindow is how long a terminal gathers competing route
	// candidates (RREQs at the destination, CSI checking packets and RREPs
	// at the source) before deciding (paper §II.D: 40 ms).
	CollectWindow = 40 * time.Millisecond
	// DiscoveryTimeout bounds one RREQ flood round trip.
	DiscoveryTimeout = 1 * time.Second
	// MaxDiscoveryRetries is how many times a source re-floods before
	// dropping the pending packets.
	MaxDiscoveryRetries = 2
	// RebroadcastJitter desynchronizes flood rebroadcasts so neighbours do
	// not systematically collide on the common channel.
	RebroadcastJitter = 8 * time.Millisecond
	// PendingLifetime mirrors the data-buffer residency limit: a packet
	// waiting for a route longer than this is dropped.
	PendingLifetime = 3 * time.Second
	// PendingCap bounds the per-destination discovery buffer.
	PendingCap = 64
)

// BaseAgent provides no-op implementations of the Agent hooks a protocol
// may leave empty, so protocols embed it and override what they need.
type BaseAgent struct{}

// Start implements network.Agent.
func (BaseAgent) Start(time.Duration) {}

// HandleControl implements network.Agent.
func (BaseAgent) HandleControl(*packet.Packet, time.Duration) {}

// DataArrived implements network.Agent.
func (BaseAgent) DataArrived(*packet.Packet, time.Duration) {}

// Jitter draws a rebroadcast delay in [1, RebroadcastJitter).
func Jitter(rng *rand.Rand) time.Duration {
	return time.Millisecond + time.Duration(rng.Int63n(int64(RebroadcastJitter-time.Millisecond)))
}

// Entry is one route-table row: the next hop toward Dst and the metrics
// the protocol attached when it learned the route.
type Entry struct {
	Dst       int
	Next      int
	HopCount  float64 // protocol metric (CSI distance or plain hops)
	GeoHops   int     // geographic length, where known
	UpdatedAt time.Duration
	Valid     bool
}

// Table maps destinations to route entries with idle expiry: an entry not
// refreshed within the table's timeout is treated as absent, implementing
// the paper's "original route automatically expires" rule.
type Table struct {
	entries     map[int]*Entry
	IdleTimeout time.Duration // zero disables expiry

	// OnInstall and OnInvalidate, when set, observe table churn: OnInstall
	// fires after every Install, OnInvalidate once per entry transitioning
	// from valid to invalid — whether by explicit invalidation, link-break
	// fan-out, or lazily discovered idle expiry.
	OnInstall    func()
	OnInvalidate func()
}

// NewTable returns an empty table with the given idle timeout.
func NewTable(idle time.Duration) *Table {
	return &Table{entries: make(map[int]*Entry), IdleTimeout: idle}
}

// Lookup returns the live entry for dst, or nil when none exists, it was
// invalidated, or it idled out.
func (t *Table) Lookup(dst int, now time.Duration) *Entry {
	e := t.entries[dst]
	if e == nil || !e.Valid {
		return nil
	}
	if t.IdleTimeout > 0 && now-e.UpdatedAt > t.IdleTimeout {
		e.Valid = false
		if t.OnInvalidate != nil {
			t.OnInvalidate()
		}
		return nil
	}
	return e
}

// Peek returns the entry regardless of validity or age (diagnostics and
// REER downstream checks, which must consult the stored next hop even for
// stale routes).
func (t *Table) Peek(dst int) *Entry { return t.entries[dst] }

// Install inserts or replaces the route toward dst. The destination's
// existing entry record is overwritten in place when one exists, so
// steady-state route churn recycles rather than allocates; holders of a
// stale *Entry observe the replacement route, which matches the table's
// "latest install wins" semantics.
func (t *Table) Install(dst, next int, hopCount float64, geoHops int, now time.Duration) *Entry {
	e := t.entries[dst]
	if e == nil {
		e = &Entry{}
		t.entries[dst] = e
	}
	*e = Entry{Dst: dst, Next: next, HopCount: hopCount, GeoHops: geoHops, UpdatedAt: now, Valid: true}
	if t.OnInstall != nil {
		t.OnInstall()
	}
	return e
}

// Touch refreshes the entry's idle clock when data flows through it.
func (t *Table) Touch(dst int, now time.Duration) {
	if e := t.entries[dst]; e != nil {
		e.UpdatedAt = now
	}
}

// Invalidate marks the route toward dst unusable.
func (t *Table) Invalidate(dst int) {
	if e := t.entries[dst]; e != nil && e.Valid {
		e.Valid = false
		if t.OnInvalidate != nil {
			t.OnInvalidate()
		}
	}
}

// InvalidateNext marks every route through neighbour next unusable and
// returns the affected destinations (REER generation fans out per flow).
func (t *Table) InvalidateNext(next int) []int {
	var dsts []int
	for dst, e := range t.entries {
		if e.Valid && e.Next == next {
			e.Valid = false
			if t.OnInvalidate != nil {
				t.OnInvalidate()
			}
			dsts = append(dsts, dst)
		}
	}
	return dsts
}

// HistoryLifetime is how long a History is guaranteed to find a flood
// record after the record was last touched: DiscoveryTimeout × (1 +
// MaxDiscoveryRetries) = PendingLifetime, the instant at which the
// discovery round a flood belonged to has been given up and the packets
// that wanted it dropped. No copy, reply or retry of a flood has any use
// for its record after that (on the congested metro-500 cell the longest
// gap between two touches of one record is 0.65 s, and the last touch
// comes at most 0.79 s after the first), which is what RFC 3561's
// PATH_DISCOVERY_TIME says of an RREQ id.
const HistoryLifetime = DiscoveryTimeout * (1 + MaxDiscoveryRetries)

// generationEnd returns the end of the HistoryLifetime-long generation
// now falls in. Generations are cut at multiples of the lifetime, not a
// lifetime after the last rotation, so however sparse a terminal's calls
// are, a record untouched for two lifetimes has been retired by then.
func generationEnd(now time.Duration) time.Duration {
	return now - now%HistoryLifetime + HistoryLifetime
}

// History performs duplicate suppression for flood packets and remembers
// the reverse pointer (the upstream terminal the first copy arrived from),
// which the RREP later retraces. Records are stored by value: a network
// sees one new flood instance per received copy of every query round, and
// boxing each record was the simulator's largest residual allocation.
//
// A terminal remembers what it has recently seen, not everything it ever
// saw. Simulated time is cut into generations of HistoryLifetime; the
// history keeps the current one and the one before it. Inserts and
// improving updates go to the current generation, a lookup probes
// current then previous and carries a previous-generation hit forward,
// and the first FirstCopy/Improved call of a new generation retires the
// older table: cleared, never reallocated, so a history at its working
// size allocates nothing. What is promised:
//
//   - a record is found for at least HistoryLifetime after its last
//     touch (insert, improving update, or any call that found it);
//   - a record untouched for 2 × HistoryLifetime is gone;
//   - in between it may be either.
//
// The history's clock is the now of its FirstCopy/Improved calls; Lookup
// carries no time and answers as of the last of them.
//
// Each generation is a linear-probed open-addressing table keyed on
// flood keys packed into one uint64 — every received flood copy performs
// at least one history lookup, and the packed probe (a multiply-shift
// hash, no write barriers, records inline) is the cheapest exact
// structure for it. Keys that cannot pack (beyond 2^17 terminals or 2^26
// flood rounds) spill into an ordinary map, which never forgets; the two
// tiers partition the key space.
type History struct {
	cur, prev floodTable
	rotateAt  time.Duration // end of cur's generation (zero: the first call rotates two empty tables)

	spill map[packet.FloodKey]FloodRecord // unpackable keys only

	// obs, when set, counts suppressed flood copies and spill-tier
	// insertions (nil-safe).
	obs *obs.Registry

	// audit, when set, is the exactness law's instrument (tests only).
	audit *forgetAudit
}

// forgetAudit is an unbounded shadow of every packed key a History ever
// stored. A lookup that misses both generations but hits the shadow is
// one the bounded history answered differently from a history that never
// forgets; the exactness law asserts there are none.
type forgetAudit struct {
	seen   map[uint64]struct{}
	misses *uint64
}

// SetObs wires the suppression/spill counters into r.
func (h *History) SetObs(r *obs.Registry) { h.obs = r }

// Audit turns on the exactness audit: from here on every lookup that
// misses a record this history has forgotten adds one to *misses. The
// shadow key set it keeps is unbounded, which is the point; only the
// invariant harness enables it (network.NodeConfig.ForgetAudit).
func (h *History) Audit(misses *uint64) {
	h.audit = &forgetAudit{seen: make(map[uint64]struct{}), misses: misses}
}

// floodTable is one generation: packed keys beside the two fields a
// record holds, in three parallel arrays — 20 bytes a slot.
type floodTable struct {
	keys []uint64 // packed keys; 0 marks an empty slot (Kind is never 0)
	hop  []float64
	from []int32 // scenario.MaxNodes terminals fit
	used int
}

// historyInitSlots sizes a fresh table; grows by doubling at ~3/4 load.
const historyInitSlots = 64

// packKey folds a FloodKey into a nonzero uint64: origin and dst in 17
// bits each (covering scenario.MaxNodes), the kind in 4, the broadcast
// id in 26. Reports false for keys outside those ranges, which take the
// spill path.
func packKey(k packet.FloodKey) (uint64, bool) {
	if uint32(k.Origin) >= 1<<17 || uint32(k.Dst) >= 1<<17 ||
		k.BroadcastID >= 1<<26 || k.Kind >= 1<<4 || k.Kind == 0 {
		return 0, false
	}
	return uint64(k.Origin)<<47 | uint64(k.Dst)<<30 | uint64(k.Kind)<<26 | uint64(k.BroadcastID), true
}

// find returns the slot holding pk, or the empty slot where it belongs.
func (t *floodTable) find(pk uint64) int {
	mask := uint64(len(t.keys) - 1)
	i := (pk * 0x9E3779B97F4A7C15) >> 32 & mask
	for {
		if k := t.keys[i]; k == pk || k == 0 {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

func (t *floodTable) get(pk uint64) (FloodRecord, bool) {
	if t.used == 0 {
		return FloodRecord{}, false
	}
	i := t.find(pk)
	if t.keys[i] != pk {
		return FloodRecord{}, false
	}
	return FloodRecord{FirstFrom: int(t.from[i]), HopCount: t.hop[i]}, true
}

// put inserts or overwrites a record.
func (t *floodTable) put(pk uint64, rec FloodRecord) {
	if t.used*4 >= len(t.keys)*3 { // includes the empty-table case
		t.grow()
	}
	i := t.find(pk)
	if t.keys[i] == 0 {
		t.keys[i] = pk
		t.used++
	}
	t.hop[i], t.from[i] = rec.HopCount, int32(rec.FirstFrom)
}

func (t *floodTable) grow() {
	oldKeys, oldHop, oldFrom := t.keys, t.hop, t.from
	n := 2 * len(oldKeys)
	if n == 0 {
		n = historyInitSlots
	}
	t.keys = make([]uint64, n)
	t.hop = make([]float64, n)
	t.from = make([]int32, n)
	for i, k := range oldKeys {
		if k != 0 {
			j := t.find(k)
			t.keys[j] = k
			t.hop[j], t.from[j] = oldHop[i], oldFrom[i]
		}
	}
}

// reset empties the table and keeps its storage. The record arrays need
// no clearing: a slot is live only while its key is.
func (t *floodTable) reset() {
	if t.used > 0 {
		clear(t.keys)
		t.used = 0
	}
}

// rotate begins the generation now falls in: the current table becomes
// the previous one and the retired previous table, emptied, the current.
// A history that sat idle through a whole generation retires both.
func (h *History) rotate(now time.Duration) {
	h.cur, h.prev = h.prev, h.cur
	h.cur.reset()
	if now >= h.rotateAt+HistoryLifetime {
		h.prev.reset()
	}
	h.rotateAt = generationEnd(now)
}

// get looks a key up across both tiers.
func (h *History) get(key packet.FloodKey) (FloodRecord, bool) {
	pk, ok := packKey(key)
	if !ok {
		rec, ok := h.spill[key]
		return rec, ok
	}
	if rec, ok := h.cur.get(pk); ok {
		return rec, true
	}
	if rec, ok := h.prev.get(pk); ok {
		h.cur.put(pk, rec) // touched: it lives another generation
		return rec, true
	}
	if h.audit != nil {
		if _, forgotten := h.audit.seen[pk]; forgotten {
			*h.audit.misses++
		}
	}
	return FloodRecord{}, false
}

// put inserts or overwrites a record in the current generation.
func (h *History) put(key packet.FloodKey, rec FloodRecord) {
	pk, ok := packKey(key)
	if !ok {
		if h.spill == nil {
			h.spill = make(map[packet.FloodKey]FloodRecord)
		}
		h.obs.Inc(obs.CHistorySpills)
		h.spill[key] = rec
		return
	}
	if h.audit != nil {
		h.audit.seen[pk] = struct{}{}
	}
	h.cur.put(pk, rec)
}

// FloodRecord is what the history keeps per flood instance: the reverse
// hop an RREP retraces and the metric an improving copy must beat.
type FloodRecord struct {
	// FirstFrom is the neighbour that delivered the copy on record (the
	// first, or the last improving one).
	FirstFrom int
	// HopCount is the accumulated metric that copy carried after this
	// terminal's own link was added.
	HopCount float64
}

// NewHistory returns an empty flood history.
func NewHistory() *History {
	return &History{}
}

// FirstCopy records pkt's flood instance if unseen and reports whether
// this was the first copy. Duplicate copies return (record, false) with
// the original record, which callers use for reverse-path forwarding.
func (h *History) FirstCopy(pkt *packet.Packet, now time.Duration) (FloodRecord, bool) {
	if now >= h.rotateAt {
		h.rotate(now)
	}
	key := pkt.Key()
	if rec, ok := h.get(key); ok {
		h.obs.Inc(obs.CFloodSuppressed)
		return rec, false
	}
	rec := FloodRecord{FirstFrom: pkt.From, HopCount: pkt.HopCount}
	h.put(key, rec)
	return rec, true
}

// metricImprovement is the minimum accumulated-metric gain that justifies
// another rebroadcast of the same flood; it suppresses churn from
// floating-point noise and near-ties.
const metricImprovement = 1e-6

// Improved records pkt's flood instance and reports whether this copy
// either is the first or carries a strictly better (smaller) accumulated
// metric than the best copy seen so far; the record is updated to the
// improving copy. Channel-adaptive floods (RICA, BGCA) rebroadcast
// improving copies so the accumulated CSI distances converge to the true
// shortest routes; the metric strictly decreases per terminal, so the
// flood always terminates.
func (h *History) Improved(pkt *packet.Packet, now time.Duration) (FloodRecord, bool) {
	if now >= h.rotateAt {
		h.rotate(now)
	}
	key := pkt.Key()
	rec, ok := h.get(key)
	if !ok || pkt.HopCount < rec.HopCount-metricImprovement {
		rec = FloodRecord{FirstFrom: pkt.From, HopCount: pkt.HopCount}
		h.put(key, rec)
		return rec, true
	}
	h.obs.Inc(obs.CFloodSuppressed)
	return rec, false
}

// Lookup fetches the record for a recently seen flood, if any.
func (h *History) Lookup(key packet.FloodKey) (FloodRecord, bool) {
	return h.get(key)
}

// Pending buffers data packets waiting for a route to one destination.
type Pending struct {
	items []pendingItem
}

type pendingItem struct {
	pkt *packet.Packet
	at  time.Duration
}

// Add buffers pkt; when the buffer is full the packet is dropped as
// congestion, matching the paper's finite-buffer discipline.
func (p *Pending) Add(pkt *packet.Packet, now time.Duration, env network.Env) {
	if len(p.items) >= PendingCap {
		env.DropData(pkt, network.DropCongestion)
		return
	}
	p.items = append(p.items, pendingItem{pkt: pkt, at: now})
}

// Len reports how many packets wait.
func (p *Pending) Len() int { return len(p.items) }

// Flush hands every still-fresh packet to deliver and drops expired ones;
// the buffer is left empty.
func (p *Pending) Flush(now time.Duration, env network.Env, deliver func(pkt *packet.Packet)) {
	items := p.items
	p.items = nil
	for _, it := range items {
		if now-it.at > PendingLifetime {
			env.DropData(it.pkt, network.DropExpired)
			continue
		}
		deliver(it.pkt)
	}
}

// DropAll discards every buffered packet with the given reason.
func (p *Pending) DropAll(env network.Env, reason network.DropReason) {
	for _, it := range p.items {
		env.DropData(it.pkt, reason)
	}
	p.items = nil
}

// ReleaseAll silently frees every buffered packet — no drop is recorded.
// The end-of-run drain uses it, where recording would perturb the run's
// metrics. It returns how many packets were released.
func (p *Pending) ReleaseAll() int {
	n := len(p.items)
	for _, it := range p.items {
		it.pkt.Release()
	}
	p.items = nil
	return n
}

// ExportEntries snapshots the table's entries — valid and invalidated
// alike, idle expiry NOT lazily applied — in ascending destination
// order. A pure read in deterministic order: the checkpoint capture
// serializes route tables through it for cross-process verification.
func (t *Table) ExportEntries() []Entry {
	if len(t.entries) == 0 {
		return nil
	}
	dsts := make([]int, 0, len(t.entries))
	for dst := range t.entries {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	out := make([]Entry, 0, len(dsts))
	for _, dst := range dsts {
		out = append(out, *t.entries[dst])
	}
	return out
}
