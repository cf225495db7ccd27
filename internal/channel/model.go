package channel

import (
	"time"

	"rica/internal/geom"
	"rica/internal/obs"
	"rica/internal/sim"
)

// Positioner supplies a terminal's location at a virtual time. Implemented
// by *mobility.Node; abstracted here so channel tests can use fixed or
// scripted positions.
type Positioner interface {
	Position(at time.Duration) geom.Point
}

// Speeder optionally reports a terminal's instantaneous speed; terminals
// that implement it (mobility.Node does) drive the Doppler scaling of
// their links' fading. Positioners without it are treated as parked.
type Speeder interface {
	Speed(at time.Duration) float64
}

// streamKindChannel namespaces link fading streams within a trial's seed
// space (see sim.Streams).
const streamKindChannel = 0x_C4A1

// Model is the full-network channel: one fading Link per unordered
// terminal pair plus the terminals' positions. It answers the question
// every layer above asks — "what class is the link between i and j right
// now?" — and provides neighbourhood scans for floods and topology
// installation.
//
// Queries route through a per-instant snapshot (see snapshot.go): the
// positions, speeds, and outage states behind them are derived once per
// virtual instant, each pair's class at most once per instant (the memo
// rides on the link), and neighbourhood scans walk per-build candidate
// lists over a spatial grid rather than the terminal set (see
// fastpath.go). The per-pair fading streams are untouched by all of the
// caching, so results are bit-identical to the uncached scans.
type Model struct {
	cfg     Config
	pos     []Positioner
	caps    []caps  // optional per-terminal capabilities, resolved once
	links   []*Link // upper-triangular pair index, created lazily
	nlinks  int     // how many of them exist
	streams *sim.Streams
	down    func(i int, at time.Duration) bool
	snap    *snapshot
	obs     *obs.Registry
}

// NewModel builds the channel for n terminals whose positions are given by
// pos. Each pair's fading process gets an independent deterministic stream
// from streams.
//
// Links are created lazily on first query: a pair's stream is a pure
// function of (seed, pair index), so the fading sample path is bit-for-bit
// the same no matter when the link comes into being — and seeding n(n−1)/2
// generators up front (each a 607-word scramble) was the single largest
// cost of world construction, paid mostly for pairs that never meet.
func NewModel(cfg Config, streams *sim.Streams, pos []Positioner) *Model {
	n := len(pos)
	return &Model{
		cfg:     cfg,
		pos:     pos,
		caps:    resolveCaps(pos),
		links:   make([]*Link, n*(n-1)/2),
		streams: streams,
		snap:    newSnapshot(n, cfg.Range, cfg.Range),
	}
}

// linkRec is a model-owned link as it is allocated: the fading state up
// front and, behind it, the storage of the private stream it draws from
// — one object per pair, so an advance chases no pointer out of it.
type linkRec struct {
	Link
	stream sim.StreamMem
}

// linkAt fetches (creating on first use) the fading process of the pair
// whose triangular index is idx.
func (m *Model) linkAt(idx, i, j int) *Link {
	l := m.links[idx]
	if l == nil {
		rec := new(linkRec)
		rec.init(&m.cfg, m.streams.SeedAt(&rec.stream, streamKindChannel, uint64(idx)))
		l = &rec.Link
		m.links[idx] = l
		m.nlinks++
	}
	return l
}

// N reports the number of terminals.
func (m *Model) N() int { return len(m.pos) }

// SetObs wires the fast-path cache counters (pair class/distance, grid
// rebuilds, annulus checks) into r. The model works identically — and
// counts nothing — without one.
func (m *Model) SetObs(r *obs.Registry) { m.obs = r }

// SetOutage installs a radio-outage oracle: while fn reports terminal i
// down, every link touching i behaves exactly as if the pair were out of
// range — no class, no reception, invisible to neighbourhood scans. The
// world layer uses this to run scripted node-failure/heal schedules.
func (m *Model) SetOutage(fn func(i int, at time.Duration) bool) { m.down = fn }

// Down reports whether terminal i's radio is silenced at time at.
func (m *Model) Down(i int, at time.Duration) bool {
	return m.down != nil && m.downAt(m.sync(at), i, at)
}

// pairDown reports whether either endpoint of the pair is silenced.
func (m *Model) pairDown(s *snapshot, i, j int, at time.Duration) bool {
	return m.down != nil && (m.downAt(s, i, at) || m.downAt(s, j, at))
}

// Config returns the model's configuration (a copy).
func (m *Model) Config() Config { return m.cfg }

// pairIndex maps an unordered pair to its slot in the triangular array.
func (m *Model) pairIndex(i, j int) int {
	if i == j {
		panic("channel: self link has no channel")
	}
	if i > j {
		i, j = j, i
	}
	n := len(m.pos)
	// Row-major upper triangle: row i starts after sum_{k<i} (n-1-k) slots.
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// Distance reports the current distance between terminals i and j.
func (m *Model) Distance(i, j int, at time.Duration) float64 {
	if i == j {
		return 0
	}
	return m.distAt(m.sync(at), i, j, at)
}

// relSpeed bounds the pair's relative speed by the sum of the terminals'
// own speeds (exact relative velocity is not worth the extra queries).
func (m *Model) relSpeed(s *snapshot, i, j int, at time.Duration) float64 {
	return m.speedAt(s, i, at) + m.speedAt(s, j, at)
}

// Class reports the channel class between i and j at time at. The link is
// symmetric: Class(i, j) == Class(j, i) by construction. Repeated queries
// of a pair within one instant are answered from the memo on the link —
// the fading link is advanced exactly once per instant either way, so
// the memo never perturbs a sample path.
func (m *Model) Class(i, j int, at time.Duration) Class {
	s := m.sync(at)
	idx := m.pairIndex(i, j)
	if l := m.links[idx]; l != nil && l.memoGen == s.gen {
		m.obs.Inc(obs.CClassHits)
		return l.memoClass
	}
	return m.classMiss(s, idx, i, j, at)
}

// SNR reports the instantaneous link SNR in dB (ignoring the range
// cutoff); exported for diagnostics and tests. Memoized per pair per
// instant like Class.
func (m *Model) SNR(i, j int, at time.Duration) float64 {
	s := m.sync(at)
	idx := m.pairIndex(i, j)
	if l := m.links[idx]; l != nil && l.snrGen == s.gen {
		return l.snr
	}
	d := m.distAt(s, i, j, at)
	l := m.linkAt(idx, i, j)
	l.snr = l.SNR(d, m.relSpeed(s, i, j, at), at)
	l.snrGen = s.gen
	return l.snr
}

// InRange reports whether i and j are within radio reception range (and
// neither radio is silenced by an outage).
func (m *Model) InRange(i, j int, at time.Duration) bool {
	s := m.sync(at)
	if m.pairDown(s, i, j, at) {
		return false
	}
	if i == j {
		return true // a terminal trivially hears itself
	}
	return m.distAt(s, i, j, at) <= m.cfg.Range
}

// interferenceEps absorbs float rounding in the triangle-inequality
// argument behind Interferers: exclusion is only claimed with a metre-µ
// margin, so a correctly-rounded distance can never flip a verdict that
// matters.
const interferenceEps = 1e-6

// Interferers appends to dst every terminal whose transmission could
// reach a terminal that hears i, in ascending id order (i included): by
// the triangle inequality, everything in range of i is within 2·Range of
// whatever reaches it, so a terminal beyond that (plus a float-safety
// margin) cannot touch any of i's receivers. The answer is a superset
// read off the grid's build positions — each endpoint has drifted at
// most the build's slack budget, so the cut is widened by two of them —
// and is computed once per (terminal, grid build): a completion's overlap
// filter derives no position at all. Outage state is deliberately not
// consulted — this is a conservative spatial filter, and the exact
// per-receiver InRange check keeps the final say.
func (m *Model) Interferers(i int, at time.Duration, dst []int) []int {
	s := m.sync(at)
	g, _ := m.gridAt(s, at)
	if s.irfStamp[i] != s.candGen {
		s.irf[i] = g.Near(g.PointAt(i), s.irfRadius, s.irf[i][:0])
		s.irfStamp[i] = s.candGen
	}
	return append(dst, s.irf[i]...)
}

// bruteNeighbors is the pre-grid reference scan: every other terminal's
// position derived straight from its Positioner and tested pairwise.
// Property tests and benchmark baselines compare the grid path against
// it; production code must not call it.
func (m *Model) bruteNeighbors(i int, at time.Duration, dst []int) []int {
	if m.down != nil && m.down(i, at) {
		return dst
	}
	pi := m.pos[i].Position(at)
	for j := range m.pos {
		if j == i || (m.down != nil && m.down(j, at)) {
			continue
		}
		if pi.DistanceTo(m.pos[j].Position(at)) <= m.cfg.Range {
			dst = append(dst, j)
		}
	}
	return dst
}

// Position exposes terminal i's current location (diagnostics, examples).
func (m *Model) Position(i int, at time.Duration) geom.Point {
	s := m.sync(at)
	return m.positionAt(s, i, at)
}

// LinkCount reports how many links have been created — how many EachLink
// visits.
func (m *Model) LinkCount() int { return m.nlinks }

// EachLink visits every lazily-created link in triangular index order
// (uncreated pairs are skipped), without advancing any of them. The
// checkpoint capture serializes link states in exactly this order.
func (m *Model) EachLink(fn func(idx int, st LinkState)) {
	for idx, l := range m.links {
		if l != nil {
			fn(idx, l.ExportState())
		}
	}
}
