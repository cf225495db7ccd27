// Channel query fast path: per-instant pair memoization, fused neighbour
// scans and kinetic neighbour lists (DESIGN.md §9).
//
// Everything here is bit-identical to the plain query path by
// construction. The pair memo (a generation stamp and the value, on the
// Link itself) answers repeated same-instant queries without advancing
// the fading link — Link.advance no-ops at dt ≤ 0, so a repeated query
// never consumed random draws in the first place, and re-quantizing an
// unchanged SNR against the hysteresis state the first quantization
// left behind reproduces the first answer exactly. The
// fused scans change how candidate pairs are enumerated and where their
// distances are computed, and the kinetic lists whether a range verdict
// is re-derived or carried over a window in which it cannot change —
// never which links get advanced at which instants, so every fading
// stream sees the identical query sequence.
package channel

import (
	"math"
	"time"

	"rica/internal/geom"
	"rica/internal/obs"
)

// NeighborClass is one entry of a fused neighbourhood scan: a terminal
// in radio range together with the current channel class toward it.
type NeighborClass struct {
	ID    int
	Class Class
}

// distAt derives the exact distance between i and j at the snapshot's
// instant from their memoized positions. There is no per-pair distance
// memo: a pair's distance is asked for about once per instant, and two
// cached position reads and a square root cost less than the table that
// remembered them (ROADMAP item 5).
func (m *Model) distAt(s *snapshot, i, j int, at time.Duration) float64 {
	m.obs.Inc(obs.CDistMisses)
	return m.positionAt(s, i, at).DistanceTo(m.positionAt(s, j, at))
}

// classMiss computes the pair's class at the snapshot's instant, stamps
// it on the link as the instant's memo, and returns it. It is the one
// place the fading link is consulted, so the advance pattern each link
// observes is exactly the unmemoized one: the first class query of a
// pair at a new instant advances it, repeats are answered from the memo
// without touching it.
func (m *Model) classMiss(s *snapshot, idx, i, j int, at time.Duration) Class {
	m.obs.Inc(obs.CClassMisses)
	d := m.distAt(s, i, j, at)
	if m.pairDown(s, i, j, at) {
		// Radio-silent endpoint: feed the link an out-of-range distance so
		// its fading process still advances in step with real time.
		d = m.cfg.Range + 1
	}
	l := m.linkAt(idx, i, j)
	c := l.ClassAt(d, m.relSpeed(s, i, j, at), at)
	l.memoClass = c
	l.memoGen = s.gen
	return c
}

// Warm reads, for each j in js, what the first Class(i, j, ·) of an
// instant reads from the pair's fading link: the pair's slot, the link
// header, and for a live link its generator's cursor and the two vector
// words its next draw adds. A broadcast's receivers each measure the
// class of the link they heard it over, and at N=500 every one of those
// links is a cache miss; reading them all before the first delivery lets
// the misses overlap instead of queueing one per receiver. Warm only
// reads — a pair never met is not created, a parked link is not revived
// and nothing advances — so no query, export or capture can tell whether
// it ran. What it read is folded into m.warmed so the loads are kept.
//
// The generator is reached through the header, so it is read in a second
// pass: by then every header is on its way in, and each receiver's chain
// of dependent misses is two long instead of four. On metro-500 two
// passes read 0.90–0.975× the user CPU of one (4 of 4 pairs, 2-vCPU
// Xeon).
func (m *Model) Warm(i int, js []int) {
	var sum uint64
	for _, j := range js {
		if l := m.links[m.pairIndex(i, j)]; l != nil {
			sum += l.memoGen ^ math.Float64bits(l.lastD)
		}
	}
	for _, j := range js {
		if l := m.links[m.pairIndex(i, j)]; l != nil && l.mem != nil {
			sum += l.mem.Peek()
		}
	}
	m.warmed += sum
}

// candEntry is one candidate of a per-build neighbour list: the
// terminal, the pair's triangular index (precomputed so the hot walks
// never re-derive it), and the build-time distance.
type candEntry struct {
	id  int32
	idx int32 // triangular pair index of (centre, id)
	d   float64
}

// candidates returns node i's candidate list over the current grid
// build: every other terminal whose build-time distance from i's
// build-time position is within candRadius, ascending by id, each with
// that build-time distance and the pair's link index. The list is
// computed once per (node, grid build) and reused until the next
// rebuild — it depends only on the indexed positions, not on the query
// instant — so repeated neighbour scans between rebuilds skip the
// bucket walk and sorting entirely.
func (m *Model) candidates(s *snapshot, g *geom.Grid, i int) []candEntry {
	if s.candStamp[i] == s.candGen {
		return s.cand[i]
	}
	s.ndBuf = g.NearDist(g.PointAt(i), s.candRadius, s.ndBuf[:0])
	lst := s.cand[i][:0]
	for _, c := range s.ndBuf {
		j := int(c.ID)
		if j == i {
			continue // the centre is always its own nearest candidate
		}
		lst = append(lst, candEntry{id: c.ID, idx: int32(m.pairIndex(i, j)), d: c.D})
	}
	s.cand[i] = lst
	s.candStamp[i] = s.candGen
	return lst
}

// Neighbors appends to dst the ids of terminals within radio range of i
// in ascending id order, and returns the extended slice. Pass a reusable
// buffer to avoid allocation in flood hot paths. The scan walks the
// node's per-build candidate list: with a fresh grid the recorded
// build-time distances are the current distances bit-for-bit; against a
// stale grid only the candidates inside the drift annulus need an exact
// distance check — and such a scan keeps its result as the node's
// kinetic list, which answers repeat scans for as long as no pair around
// the node can have crossed the range boundary.
func (m *Model) Neighbors(i int, at time.Duration, dst []int) []int {
	s := m.sync(at)
	if m.downAt(s, i, at) {
		return dst
	}
	g, slack := m.gridAt(s, at)
	if m.down == nil && s.kinStamp[i] == s.candGen && s.kinFrom[i] <= at && at < s.kinUntil[i] {
		return append(dst, s.kin[i]...)
	}
	cands := m.candidates(s, g, i)

	if slack == 0 {
		// The indexed positions are the current ones bit-for-bit, so the
		// recorded build distance is exact — no position derivation at all.
		for _, c := range cands {
			if c.d > m.cfg.Range || m.downAt(s, int(c.id), at) {
				continue
			}
			dst = append(dst, int(c.id))
		}
		return dst
	}

	// Stale grid: both endpoints can have drifted at most slack metres
	// since the build, so a build distance ≤ Range−2·safe guarantees the
	// pair is still in range, beyond Range+2·safe it provably is not, and
	// only the annulus needs an exact check against current positions.
	// margin is how close any candidate can be to the range boundary now:
	// exact inside the annulus, the certainty bound elsewhere.
	safe := slack + slack*slackEps + slackEps
	in, out := m.cfg.Range-2*safe, m.cfg.Range+2*safe
	margin := math.Inf(1)
	from := len(dst)
	for _, c := range cands {
		j := int(c.id)
		if c.d > out {
			margin = math.Min(margin, c.d-out)
			continue
		}
		if m.downAt(s, j, at) {
			continue
		}
		if c.d > in {
			m.obs.Inc(obs.CAnnulusChecks)
			d := m.distAt(s, i, j, at)
			margin = math.Min(margin, math.Abs(d-m.cfg.Range))
			if d > m.cfg.Range {
				continue
			}
		} else {
			margin = math.Min(margin, in-c.d)
		}
		dst = append(dst, j)
	}
	if m.down == nil {
		// Kinetic list: two terminals close on each other at no more than
		// 2·gridVmax, so until that eats the margin no pair around i crosses
		// the range boundary and a repeat scan within this build is a copy.
		// Terminals outside the candidate list stay out of range for as long
		// as the build serves at all. With an outage oracle installed the
		// list is not kept: a flip must be honoured at its own instant.
		s.kin[i] = append(s.kin[i][:0], dst[from:]...)
		s.kinStamp[i] = s.candGen
		s.kinFrom[i] = at
		s.kinUntil[i] = at + holdFor(margin, s.gridVmax)
	}
	return dst
}

// holdFor converts a distance margin into the virtual time for which a
// pair closing at up to 2·vmax provably cannot use it up. The margin is
// shaved by the drift bound's float padding and the result truncated
// toward zero, so every rounding shortens the window.
func holdFor(margin, vmax float64) time.Duration {
	ns := (margin - margin*slackEps - slackEps) / (2 * vmax) * float64(time.Second)
	if !(ns > 0) {
		return 0
	}
	if ns >= float64(foreverStable/2) {
		return foreverStable / 2
	}
	return time.Duration(ns)
}

// NeighborClasses appends to dst every terminal within radio range of i
// together with its current channel class, in ascending id order — the
// fused form of a Neighbors sweep followed by a Class probe per
// neighbour. One pass over the candidate list performs the range filter,
// the outage filter, the distance computation, and the class
// quantization, sharing the per-instant pair memo with the individual
// query paths.
//
// The call advances exactly the links a Neighbors-then-Class loop would
// advance (every in-range pair with both radios up, at this instant), so
// use it where that loop is the intended access pattern — topology
// installation, neighbourhood surveys — not as a drop-in for scans that
// consult only a subset of the classes.
func (m *Model) NeighborClasses(i int, at time.Duration, dst []NeighborClass) []NeighborClass {
	s := m.sync(at)
	if m.downAt(s, i, at) {
		return dst
	}
	g, slack := m.gridAt(s, at)
	cands := m.candidates(s, g, i)

	safe := slack + slack*slackEps + slackEps
	in, out := m.cfg.Range-2*safe, m.cfg.Range+2*safe
	if slack == 0 {
		in, out = m.cfg.Range, m.cfg.Range
	}
	for _, c := range cands {
		j := int(c.id)
		idx := int(c.idx)
		if c.d > out || m.downAt(s, j, at) {
			continue
		}
		if c.d > in {
			m.obs.Inc(obs.CAnnulusChecks)
			if m.distAt(s, i, j, at) > m.cfg.Range {
				continue
			}
		}
		var cl Class
		if l := m.links[idx]; l != nil && l.memoGen == s.gen {
			m.obs.Inc(obs.CClassHits)
			cl = l.memoClass
		} else {
			cl = m.classMiss(s, idx, i, j, at)
		}
		dst = append(dst, NeighborClass{ID: j, Class: cl})
	}
	return dst
}
