package channel

import (
	"math"
	"time"

	"rica/internal/geom"
	"rica/internal/obs"
)

// Stabler optionally extends Positioner with an exact staleness bound:
// the first instant after at when Position(at) may change. mobility.Node
// implements it (next leg/pause boundary), as do pinned terminals
// (forever). Positioners without it are treated as always in motion, so
// their cached positions expire at every new virtual instant.
type Stabler interface {
	PositionStableUntil(at time.Duration) time.Duration
}

// PositionStabler fuses Positioner and Stabler into a single call: the
// position at at together with the first instant it may change. The
// snapshot prefers it on a cache miss — one trajectory advance and one
// interface dispatch instead of two — and falls back to the split calls
// for Positioners that only implement the narrow interfaces. The fused
// result must equal Position(at) and PositionStableUntil(at) exactly.
type PositionStabler interface {
	PositionStable(at time.Duration) (geom.Point, time.Duration)
}

// SpeedStabler extends Speeder with an exact staleness bound, mirroring
// PositionStabler: the speed at at and the first instant it may change.
// Waypoint terminals travel each leg at constant speed and pause at zero
// speed, so their speed is piecewise constant with known boundaries —
// which lets the snapshot keep a speed cached across instants instead of
// re-deriving it per event. The fused result must equal Speed(at).
type SpeedStabler interface {
	SpeedStable(at time.Duration) (float64, time.Duration)
}

// SpeedLimiter optionally extends Positioner with a hard upper bound on
// instantaneous speed (m/s). The bound lets the snapshot keep serving a
// stale spatial grid exactly: a terminal can have drifted at most
// limit·Δt from its indexed position, so widening queries by that slack
// yields a guaranteed candidate superset. Positioners without a limit
// (and without a forever-stable position) force a grid rebuild on every
// new instant, which is simply the pre-grid behaviour.
type SpeedLimiter interface {
	SpeedLimit() float64
}

// foreverStable marks a position with no future staleness boundary.
const foreverStable = time.Duration(math.MaxInt64)

// caps holds one terminal's optional capabilities, resolved once at
// model construction so the per-miss hot paths dispatch through a nil
// check instead of an interface type assertion.
type caps struct {
	posStable   PositionStabler
	stabler     Stabler
	speeder     Speeder
	speedStable SpeedStabler
	limiter     SpeedLimiter
}

func resolveCaps(pos []Positioner) []caps {
	cs := make([]caps, len(pos))
	for i, p := range pos {
		c := &cs[i]
		c.posStable, _ = p.(PositionStabler)
		c.stabler, _ = p.(Stabler)
		c.speeder, _ = p.(Speeder)
		c.speedStable, _ = p.(SpeedStabler)
		c.limiter, _ = p.(SpeedLimiter)
	}
	return cs
}

// snapshot memoizes the kinematic state of one virtual instant —
// positions, speeds and outage flags — plus a spatial grid over the
// positions. Every Model query routes through it, so an event that makes
// many queries at one kernel.Now() (a flood delivery, a carrier-sense
// sweep, a topology install) derives each terminal's position once
// instead of once per pair. Everything in it is per terminal: a pair's
// class and SNR are memoized per instant too, but on the pair's Link,
// stamped with this snapshot's gen (see fastpath.go).
//
// Positions additionally persist *across* instants while their terminal
// is paused: the Stabler boundary says exactly when a cached position
// goes stale, so a static or pausing field rebuilds nothing. Speeds do
// the same through SpeedStabler — a waypoint terminal's speed is
// piecewise constant, so its cache entry survives until the next
// leg/pause boundary. The fading links are deliberately not part of the
// snapshot — their lazy private streams advance exactly as they would
// without it, keeping runs bit-identical to the pre-snapshot scan.
type snapshot struct {
	at  time.Duration
	gen uint64 // 0 = no instant cached yet; bumped whenever at changes

	pos      []geom.Point
	posGen   []uint64
	posAt    []time.Duration // instant each cached position was computed for
	posUntil []time.Duration // exclusive staleness bound of each position

	speed      []float64
	speedGen   []uint64
	speedFrom  []time.Duration // instant each cached speed was computed for
	speedUntil []time.Duration // exclusive staleness bound of each speed

	down    []bool
	downGen []uint64

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
		speed:      make([]float64, n),
		speedGen:   make([]uint64, n),
		speedFrom:  make([]time.Duration, n),
		speedUntil: make([]time.Duration, n),
		down:       make([]bool, n),
		downGen:    make([]uint64, n),

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
// position survives instant changes while its Stabler boundary holds.
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
	if ps := m.caps[i].posStable; ps != nil {
		p, until = ps.PositionStable(at) // fused: one trajectory advance
	} else {
		p = m.pos[i].Position(at)
		until = at
		if st := m.caps[i].stabler; st != nil {
			until = st.PositionStableUntil(at)
		}
	}
	s.pos[i] = p
	s.posGen[i] = s.gen
	s.posAt[i] = at
	s.posUntil[i] = until
	return p
}

// speedAt returns terminal i's memoized instantaneous speed at at.
func (m *Model) speedAt(s *snapshot, i int, at time.Duration) float64 {
	if s.speedGen[i] == s.gen {
		return s.speed[i]
	}
	return m.speedMiss(s, i, at)
}

func (m *Model) speedMiss(s *snapshot, i int, at time.Duration) float64 {
	if s.speedGen[i] != 0 && s.speedFrom[i] <= at && at < s.speedUntil[i] {
		s.speedGen[i] = s.gen // piecewise-constant segment still holds
		return s.speed[i]
	}
	v := 0.0
	until := at
	if ss := m.caps[i].speedStable; ss != nil {
		v, until = ss.SpeedStable(at)
	} else if sp := m.caps[i].speeder; sp != nil {
		v = sp.Speed(at)
	} else {
		until = foreverStable // no Speeder: parked by definition, forever
	}
	s.speed[i] = v
	s.speedGen[i] = s.gen
	s.speedFrom[i] = at
	s.speedUntil[i] = until
	return v
}

// downAt returns terminal i's memoized outage flag at at.
func (m *Model) downAt(s *snapshot, i int, at time.Duration) bool {
	if m.down == nil {
		return false
	}
	if s.downGen[i] == s.gen {
		return s.down[i]
	}
	s.down[i] = m.down(i, at)
	s.downGen[i] = s.gen
	return s.down[i]
}

// gridAt returns the spatial index together with the query slack that
// makes it exact at instant at. Slack 0 means the indexed positions are
// the current positions bit-for-bit; a positive slack bounds how far any
// terminal can have drifted since the build, so widening a disk query by
// it yields a guaranteed candidate superset (callers then filter against
// exact current positions). The index is rebuilt only when the drift
// budget is exhausted — every maxSlack/vmax of virtual time, not every
// event — and never in a static field. A rebuild also invalidates the
// per-node candidate lists derived from the previous build.
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
			if sl := m.caps[i].limiter; sl != nil {
				vmax = math.Max(vmax, sl.SpeedLimit())
			} else {
				vmax = math.Inf(1) // unbounded mover: no stale service
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
	return &s.grid, 0
}
