package channel

import (
	"time"

	"rica/internal/checkpoint"
	"rica/internal/geom"
	"rica/internal/obs"
	"rica/internal/sim"
)

// Positioner supplies a terminal's location at a virtual time. A plain
// Positioner is taken at its word and nothing more: its position is
// re-derived at every new instant, its links fade as if it were parked
// (speed 0), and it has no drift bound, so a spatial grid holding it is
// rebuilt at every new instant. Terminals that know their kinematics
// implement Mover.
type Positioner interface {
	Position(at time.Duration) geom.Point
}

// Mover is a Positioner that reports its kinematics exactly: how long a
// position and a speed stay valid, and how fast it can ever go. The
// terminals of a world are Movers (mobility.Node, and the world's pinned
// terminals); the model resolves the interface once per terminal, so
// a kinematic query pays a nil check, not a type assertion.
type Mover interface {
	Positioner
	// PositionStable reports the position at at, which must equal
	// Position(at), together with the first instant after at when it
	// may change: at itself while moving, the end of the pause while
	// paused, math.MaxInt64 for a terminal that never moves again. The
	// snapshot keeps a cached position until that boundary.
	PositionStable(at time.Duration) (geom.Point, time.Duration)
	// SpeedStable reports the instantaneous speed in m/s at at, which
	// drives the Doppler scaling of the terminal's links' fading,
	// together with the first instant it may change.
	SpeedStable(at time.Duration) (float64, time.Duration)
	// SpeedLimit is a hard upper bound on the speed over the whole
	// trajectory. It bounds a terminal's drift from its position in a
	// stale spatial grid, so widening queries by that slack yields a
	// guaranteed candidate superset; +Inf forbids stale service.
	SpeedLimit() float64
}

// streamKindChannel namespaces link fading streams within a trial's seed
// space (see sim.Streams).
const streamKindChannel = 0x_C4A1

// parkIdleAfter is how long a link may go unadvanced before the next grid
// rebuild parks it: releases its stream's 4.75 KB vector and keeps the
// rest of the link (Model.parkIdle). Parking is exact at any threshold,
// so the threshold trades only memory against rebuilding work, and it
// must sit well above any protocol's periodic per-link query: link
// state's 1 s beacons rebuild thirteen times as many vectors at a 1 s
// threshold as at 10 s. Generator memory barely cares. Measured on the
// paper's cell when a parked link copied its header out and handed its
// whole record back (paper-baseline, 1,176 links by 500 s, seed 1; peak
// RSS on a 2-vCPU box, one reading each):
//
//	threshold  RICA: revivals, draws re-stepped, records, RSS   LinkState: revivals, draws, records, RSS
//	never      0       0        1,176  20.1 MB                   0        0         1,174  27.4 MB
//	1 s        1,883   9.1 M      390  16.6 MB                   24,665   13.6 M      289  22.6 MB
//	3 s        1,863   9.0 M      402  16.8 MB                   5,903    2.9 M       357  22.8 MB
//	10 s       1,764   8.4 M      441  17.3 MB                   1,848    0.85 M      424  23.2 MB
//
// A rebuild costs ≈ 3 µs plus 0.5 ns per draw re-stepped
// (BenchmarkLinkRevive), so RICA's at 10 s come to ≈ 10 ms of a 2.5 s
// run, the longest (30,356 draws) ≈ 19 µs.
const parkIdleAfter = 10 * time.Second

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
	movers  []Mover // pos[i] as a Mover, nil where it is a plain Positioner
	links   []*Link // upper-triangular pair index, created lazily
	nlinks  int     // how many of them exist
	streams *sim.Streams
	down    func(i int, at time.Duration) bool
	snap    *snapshot
	obs     *obs.Registry

	// A link's stream holds its vector from the pair's first query until
	// a grid rebuild finds the link idle for longer than parkAfter; it
	// is then parked (parkIdle), and its next draw takes a vector back.
	parkAfter time.Duration

	warmed uint64 // what Warm read, kept so its loads are not dead code
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
	m := &Model{
		cfg:       cfg,
		pos:       pos,
		movers:    make([]Mover, n),
		links:     make([]*Link, n*(n-1)/2),
		streams:   streams,
		snap:      newSnapshot(n, cfg.Range, cfg.Range),
		parkAfter: parkIdleAfter,
	}
	for i, p := range pos {
		m.movers[i], _ = p.(Mover)
	}
	return m
}

// linkAt fetches the fading process of the pair whose triangular index
// is idx, created on the pair's first query: one object, its stream
// seeded in the link's own record.
func (m *Model) linkAt(idx, i, j int) *Link {
	if l := m.links[idx]; l != nil {
		return l
	}
	l := new(Link)
	l.init(&m.cfg, m.streams.SeedAt(&l.stream, streamKindChannel, uint64(idx)))
	m.links[idx] = l
	m.nlinks++
	return l
}

// parkIdle parks every created link not advanced for longer than
// parkAfter before at: its stream releases its vector and keeps its draw
// count. Every query answered from the link's fields alone (a memo hit,
// Capture) reads what it read before, and the next advance rebuilds the
// vector in the state it was released in, so parking moves no value —
// it only bounds generator memory by the pairs in play. The grid
// rebuild calls it.
func (m *Model) parkIdle(at time.Duration) {
	for _, l := range m.links {
		if l != nil && at-l.last > m.parkAfter {
			l.stream.Release()
		}
	}
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

// pairDown reports whether either endpoint of the pair is silenced.
func (m *Model) pairDown(i, j int, at time.Duration) bool {
	return m.downAt(i, at) || m.downAt(j, at)
}

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

// relSpeed bounds the pair's relative speed by the sum of the terminals'
// own speeds (exact relative velocity is not worth the extra queries).
func (m *Model) relSpeed(i, j int, at time.Duration) float64 {
	return m.speedAt(i, at) + m.speedAt(j, at)
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

// InRange reports whether i and j are within radio reception range (and
// neither radio is silenced by an outage).
func (m *Model) InRange(i, j int, at time.Duration) bool {
	s := m.sync(at)
	if m.pairDown(i, j, at) {
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

// Capture writes the checkpoint section LINK to e: how many links have
// been created, then each in triangular index order (uncreated pairs are
// skipped; a parked link's header is all it reads) as its index and
// fading state — the advance clock, the shadowing and fading processes,
// the quantizer's hysteresis memory and the path-loss memo. The memo is
// deterministic derived state; writing it makes verification strict
// about it staying bit-exact. No link is advanced.
func (m *Model) Capture(e *checkpoint.Enc) {
	e.Int(m.nlinks)
	for idx, l := range m.links {
		if l == nil {
			continue
		}
		e.Int(idx)
		e.Dur(l.last)
		e.F64(l.shadow)
		e.F64(l.fi)
		e.F64(l.fq)
		e.Int(int(l.lastClass))
		e.F64(l.lastD)
		e.F64(l.lastPathLoss)
	}
}
