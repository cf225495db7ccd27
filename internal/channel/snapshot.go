package channel

import (
	"math"
	"time"

	"rica/internal/geom"
	"rica/internal/obs"
)

// foreverStable marks a position with no future staleness boundary.
const foreverStable = time.Duration(math.MaxInt64)

// snapshot memoizes the positions of one virtual instant plus a spatial
// grid over them. Every Model query routes through it, so an event that
// makes many queries at one kernel.Now() (a flood delivery, a
// carrier-sense sweep, a topology install) derives each terminal's
// position once instead of once per pair. Everything in it is per
// terminal: a pair's class is memoized per instant too, but on the
// pair's Link, stamped with this snapshot's gen (see fastpath.go).
//
// A Mover's positions additionally persist *across* instants while it
// is paused: its PositionStable boundary says exactly when a cached
// position goes stale, so a static or pausing field rebuilds nothing.
// Speeds and outage flags are asked of the Mover and the outage oracle
// directly: a per-instant memo of them measured no faster end to end
// (DESIGN.md §9). The fading links are deliberately not part of the
// snapshot — their lazy private streams advance exactly as they would
// without it, keeping runs bit-identical to the pre-snapshot scan.
type snapshot struct {
	at  time.Duration
	gen uint64 // 0 = no instant cached yet; bumped whenever at changes

	pos      []geom.Point
	posGen   []uint64
	posAt    []time.Duration // instant each cached position was computed for
	posUntil []time.Duration // exclusive staleness bound of each position

	// Per-node candidate lists over the current grid build (fastpath.go).
	// candGen identifies the build; a node's list is valid while its stamp
	// matches. candRadius is the build-time distance beyond which a pair
	// provably cannot be in range at any instant the build serves.
	candGen    uint64
	cand       [][]candEntry
	candStamp  []uint64
	ndBuf      []geom.IDDist // scratch for the grid query behind a list build
	safeMax    float64       // per-terminal drift bound incl. float-safety padding
	candRadius float64

	// Kinetic neighbour lists (fastpath.go): the result of node i's last
	// stale-grid scan, valid for instants in [kinFrom[i], kinUntil[i]) of
	// the build kinStamp[i] names — the window in which no pair around i
	// can have crossed the range boundary.
	kin      [][]int
	kinStamp []uint64
	kinFrom  []time.Duration
	kinUntil []time.Duration

	// Per-node interference lists over the current grid build (see
	// Model.Interferers): everything within irfRadius at build time, which
	// covers twice the radio range at every instant the build serves.
	irf       [][]int
	irfStamp  []uint64
	irfRadius float64

	grid      geom.Grid
	gridBuilt bool
	gridAt    time.Duration // instant the grid was built for
	gridUntil time.Duration // min posUntil across members at build time
	gridVmax  float64       // max SpeedLimit across mobile members; +Inf if unbounded
	maxSlack  float64       // drift budget before a rebuild (a sixteenth of a cell)
}

// slackEps keeps float rounding in the drift bound from ever flipping a
// certainty, at the price of a nanometre-wider annulus.
const slackEps = 1e-9

// newSnapshot sizes the per-instant caches for n terminals. rangeM is
// the radio range the neighbour queries use; cell the grid's bucket
// size (currently equal to the range, but the candidate-list radius
// must follow the range even if the bucket size is ever tuned apart).
func newSnapshot(n int, rangeM, cell float64) *snapshot {
	if cell <= 0 {
		cell = 1 // degenerate configs (tests) still get a working index
	}
	if rangeM < 0 {
		rangeM = 0
	}
	maxSlack := cell / 16
	safeMax := maxSlack + maxSlack*slackEps + slackEps
	return &snapshot{
		// The drift budget trades rebuild rate against the width of the
		// exact-check annulus every stale-grid query must walk. Rebuilds
		// are O(n) and cheap, while the annulus is paid on every flood
		// completion's neighbour scan, so a tight budget wins: at the
		// default 250 m range and 10 m/s MaxSpeed a sixteenth of a cell
		// rebuilds every ~1.5 virtual seconds and keeps the annulus under
		// ±16 m per terminal.
		maxSlack: maxSlack,
		safeMax:  safeMax,
		// Candidate lists must stay supersets for every instant their grid
		// build serves: both endpoints of a pair can drift up to the slack
		// budget, so the cut is one full annulus width past the range.
		candRadius: rangeM + 2*safeMax,
		pos:        make([]geom.Point, n),
		posGen:     make([]uint64, n),
		posAt:      make([]time.Duration, n),
		posUntil:   make([]time.Duration, n),

		cand:      make([][]candEntry, n),
		candStamp: make([]uint64, n),

		kin:      make([][]int, n),
		kinStamp: make([]uint64, n),
		kinFrom:  make([]time.Duration, n),
		kinUntil: make([]time.Duration, n),

		irf:       make([][]int, n),
		irfStamp:  make([]uint64, n),
		irfRadius: 2*rangeM + interferenceEps + 2*safeMax,

		grid: *geom.NewGrid(cell),
	}
}

// sync points the snapshot at virtual instant at. Same-instant calls are
// free; a new instant just bumps the generation (lazy invalidation — no
// per-terminal work happens until something is queried).
func (m *Model) sync(at time.Duration) *snapshot {
	s := m.snap
	if s.gen == 0 || s.at != at {
		s.at = at
		s.gen++
	}
	return s
}

// positionAt returns terminal i's memoized position at instant at,
// deriving it from the Positioner only when the cache misses. A cached
// position survives instant changes while its Mover boundary holds.
// The hit branch is kept small enough to inline into the range and class
// probes that dominate the flood hot path.
func (m *Model) positionAt(s *snapshot, i int, at time.Duration) geom.Point {
	if s.posGen[i] == s.gen {
		return s.pos[i]
	}
	return m.positionMiss(s, i, at)
}

func (m *Model) positionMiss(s *snapshot, i int, at time.Duration) geom.Point {
	if s.posGen[i] != 0 && s.posAt[i] <= at && at < s.posUntil[i] {
		s.posGen[i] = s.gen // still stable: revalidate for this instant
		return s.pos[i]
	}
	var p geom.Point
	var until time.Duration
	if mv := m.movers[i]; mv != nil {
		p, until = mv.PositionStable(at)
	} else {
		p, until = m.pos[i].Position(at), at // stale at the next instant
	}
	s.pos[i] = p
	s.posGen[i] = s.gen
	s.posAt[i] = at
	s.posUntil[i] = until
	return p
}

// speedAt returns terminal i's instantaneous speed at at.
func (m *Model) speedAt(i int, at time.Duration) float64 {
	if mv := m.movers[i]; mv != nil {
		v, _ := mv.SpeedStable(at)
		return v
	}
	return 0 // a plain Positioner is parked
}

// downAt reports whether terminal i's radio is silenced at at.
func (m *Model) downAt(i int, at time.Duration) bool {
	return m.down != nil && m.down(i, at)
}

// gridAt returns the spatial index together with the query slack that
// makes it exact at instant at. Slack 0 means the indexed positions are
// the current positions bit-for-bit; a positive slack bounds how far any
// terminal can have drifted since the build, so widening a disk query by
// it yields a guaranteed candidate superset (callers then filter against
// exact current positions). The index is rebuilt only when the drift
// budget is exhausted — every maxSlack/vmax of virtual time, not every
// event — and never in a static field. A rebuild also invalidates the
// per-node candidate lists derived from the previous build, and parks
// the links that have gone idle (Model.parkIdle): its cadence is a
// sweep often enough to follow the pairs in play and rare enough to cost
// nothing.
func (m *Model) gridAt(s *snapshot, at time.Duration) (*geom.Grid, float64) {
	if s.gridBuilt && at >= s.gridAt {
		if at == s.gridAt || at < s.gridUntil {
			return &s.grid, 0
		}
		if !math.IsInf(s.gridVmax, 1) {
			if slack := s.gridVmax * (at - s.gridAt).Seconds(); slack <= s.maxSlack {
				return &s.grid, slack
			}
		}
	}
	s.gridBuilt = false
	until := foreverStable
	vmax := 0.0
	for i := range m.pos {
		m.positionAt(s, i, at)
		if s.posUntil[i] < until {
			until = s.posUntil[i]
		}
		if s.posUntil[i] != foreverStable {
			if mv := m.movers[i]; mv != nil {
				vmax = math.Max(vmax, mv.SpeedLimit())
			} else {
				vmax = math.Inf(1) // no drift bound: no stale service
			}
		}
	}
	m.obs.Inc(obs.CGridRebuilds)
	s.grid.Rebuild(s.pos)
	s.gridBuilt = true
	s.gridAt = at
	s.gridUntil = until
	s.gridVmax = vmax
	s.candGen++ // candidate lists of the old build are dead
	m.parkIdle(at)
	return &s.grid, 0
}
