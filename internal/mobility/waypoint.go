// Package mobility implements the random-waypoint mobility model the paper
// evaluates under: a terminal picks a uniformly random destination in the
// field, travels there in a straight line at a speed drawn uniformly from
// [0, MAXSPEED], pauses for a fixed time (3 s in the paper), then repeats.
//
// The model is lazy and closed-form: positions are computed analytically
// from the current leg, and legs are advanced only when a query moves past
// them. No simulator events are consumed, and a node's trajectory is a
// deterministic function of its private random stream — so every protocol
// under comparison sees the identical sample path of motion.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/geom"
)

// StableForever is the staleness boundary (PositionStable, SpeedStable)
// of a terminal that never moves again: effectively the end of virtual
// time.
const StableForever = time.Duration(math.MaxInt64)

// minLegSpeed guards against a uniform draw of (almost) exactly zero, which
// would create a leg of essentially infinite duration and freeze the node
// in a way the random-waypoint literature does not intend.
const minLegSpeed = 0.01 // m/s

// Config parameterizes the random-waypoint process.
type Config struct {
	// Field is the rectangle terminals roam in.
	Field geom.Field
	// MaxSpeed is MAXSPEED in m/s; per-leg speed is uniform in
	// (0, MaxSpeed]. Zero means the terminal never moves.
	MaxSpeed float64
	// Pause is the dwell time at each waypoint. The paper uses 3 s.
	Pause time.Duration
}

// Node is one terminal's trajectory. Create with NewNode; the zero value is
// not usable because a trajectory needs its random stream.
type Node struct {
	cfg Config
	rng *rand.Rand

	// Current leg: the node departs from at time depart, arrives at to at
	// time arrive, then rests until arrive+cfg.Pause.
	from, to       geom.Point
	depart, arrive time.Duration
}

// NewNode places a terminal uniformly at random in the field and starts its
// first pause at t = 0 (so motion begins at t = Pause, matching a process
// already in its stationary pause/move cycle at the field boundary of the
// run). rng must be the node's private stream.
func NewNode(cfg Config, rng *rand.Rand) *Node {
	if rng == nil {
		panic("mobility: NewNode requires a random stream")
	}
	start := geom.Point{
		X: rng.Float64() * cfg.Field.Width,
		Y: rng.Float64() * cfg.Field.Height,
	}
	n := &Node{
		cfg:    cfg,
		rng:    rng,
		from:   start,
		to:     start,
		depart: 0,
		arrive: 0, // zero-length leg; first pause runs [0, Pause]
	}
	return n
}

// Position reports the terminal's location at virtual time at. Queries must
// be non-decreasing in time across calls (the simulator clock is
// monotonic); going backwards past the current leg panics, since the
// history needed to answer has been discarded.
func (n *Node) Position(at time.Duration) geom.Point {
	n.advanceTo(at)
	if at < n.depart {
		if at < 0 {
			panic(fmt.Sprintf("mobility: query at negative time %v", at))
		}
		// Within the pause preceding the current leg: parked at from.
		return n.from
	}
	if at >= n.arrive {
		return n.to // pausing at the waypoint
	}
	frac := float64(at-n.depart) / float64(n.arrive-n.depart)
	return n.from.Lerp(n.to, frac)
}

// Moving reports whether the terminal is in motion (not pausing) at time at.
func (n *Node) Moving(at time.Duration) bool {
	n.advanceTo(at)
	return at >= n.depart && at < n.arrive
}

// advanceTo rolls legs forward until the leg/pause containing at is current.
func (n *Node) advanceTo(at time.Duration) {
	if n.cfg.MaxSpeed <= 0 {
		return // static terminal: initial position is permanent
	}
	for at >= n.arrive+n.cfg.Pause {
		n.nextLeg()
	}
}

// nextLeg draws the next waypoint and speed and installs the new leg,
// departing when the current post-arrival pause ends.
func (n *Node) nextLeg() {
	n.from = n.to
	n.depart = n.arrive + n.cfg.Pause
	n.to = geom.Point{
		X: n.rng.Float64() * n.cfg.Field.Width,
		Y: n.rng.Float64() * n.cfg.Field.Height,
	}
	speed := n.rng.Float64() * n.cfg.MaxSpeed
	if speed < minLegSpeed {
		speed = minLegSpeed
	}
	dist := n.from.DistanceTo(n.to)
	n.arrive = n.depart + time.Duration(dist/speed*float64(time.Second))
}

// PositionStable reports the terminal's location at at, exactly
// Position(at), together with its staleness boundary: the first virtual
// instant after at when the position may change. While pausing that is
// the departure time of the next leg; while moving the position changes
// continuously, so it is at itself; a static terminal is stable forever.
// The channel snapshot uses the boundary to know exactly when a memoized
// position goes stale instead of guessing. Queries must be
// non-decreasing in time, like Position.
func (n *Node) PositionStable(at time.Duration) (geom.Point, time.Duration) {
	if n.cfg.MaxSpeed <= 0 {
		if at < 0 {
			panic(fmt.Sprintf("mobility: query at negative time %v", at))
		}
		return n.to, StableForever // static: the start point, permanently
	}
	n.advanceTo(at)
	switch {
	case at < n.depart:
		if at < 0 {
			panic(fmt.Sprintf("mobility: query at negative time %v", at))
		}
		return n.from, n.depart // parked ahead of the current leg
	case at >= n.arrive:
		return n.to, n.arrive + n.cfg.Pause // pausing at the waypoint
	default:
		frac := float64(at-n.depart) / float64(n.arrive-n.depart)
		return n.from.Lerp(n.to, frac), at // in motion: stale immediately
	}
}

// SpeedStable reports the terminal's instantaneous speed at at together
// with the first instant it may change. Waypoint motion is piecewise
// constant in speed — zero through a pause, the leg's drawn speed while
// moving — so the result stays exact until the returned boundary, which
// lets the channel snapshot keep speeds cached across virtual instants.
// The speed equals Speed(at) exactly. Queries must be non-decreasing in
// time.
func (n *Node) SpeedStable(at time.Duration) (float64, time.Duration) {
	if n.cfg.MaxSpeed <= 0 {
		return 0, StableForever
	}
	n.advanceTo(at)
	switch {
	case at < n.depart:
		return 0, n.depart
	case at >= n.arrive:
		return 0, n.arrive + n.cfg.Pause
	default:
		dist := n.from.DistanceTo(n.to)
		return dist / (float64(n.arrive-n.depart) / float64(time.Second)), n.arrive
	}
}

// SpeedLimit reports a hard upper bound on the terminal's instantaneous
// speed over its whole trajectory: per-leg speeds are drawn in
// (0, MaxSpeed], floored at the minimum leg speed. The channel snapshot
// layer uses it to bound position drift against a stale spatial index.
func (n *Node) SpeedLimit() float64 {
	if n.cfg.MaxSpeed <= 0 {
		return 0
	}
	return math.Max(n.cfg.MaxSpeed, minLegSpeed)
}

// Speed reports the terminal's instantaneous speed in m/s at time at
// (zero while pausing).
func (n *Node) Speed(at time.Duration) float64 {
	if !n.Moving(at) {
		return 0
	}
	dist := n.from.DistanceTo(n.to)
	return dist / (float64(n.arrive-n.depart) / float64(time.Second))
}

// KmhToMs converts km/h (the unit the paper's figures use) to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }

// Capture writes the current leg to e for the checkpoint section MOBI:
// its endpoints and times, which together with the terminal's stream
// state pin the trajectory's whole future. Unlike Position it never
// rolls legs forward, so a capture consumes no draw.
func (n *Node) Capture(e *checkpoint.Enc) {
	e.F64(n.from.X)
	e.F64(n.from.Y)
	e.F64(n.to.X)
	e.F64(n.to.Y)
	e.Dur(n.depart)
	e.Dur(n.arrive)
}
