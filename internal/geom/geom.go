// Package geom provides the small amount of 2-D geometry the simulator
// needs: points, displacement vectors, distances, and the rectangular
// field terminals roam in.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in metres within the simulation field.
type Point struct {
	X, Y float64
}

// String formats the point with centimetre precision for debug output.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Sub returns the displacement vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Add returns p displaced by v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// DistanceTo reports the Euclidean distance in metres between p and q.
// Field coordinates are bounded (kilometres, not 1e150), so the naive
// square-and-root form is safe from overflow and ~5× faster than
// math.Hypot's scaling dance; this is the hottest arithmetic in the
// simulator (every carrier-sense, range and class probe lands here).
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Lerp linearly interpolates between p (frac = 0) and q (frac = 1).
// frac outside [0, 1] extrapolates along the same line.
func (p Point) Lerp(q Point, frac float64) Point {
	return Point{p.X + (q.X-p.X)*frac, p.Y + (q.Y-p.Y)*frac}
}

// Vector is a 2-D displacement in metres.
type Vector struct {
	X, Y float64
}

// Length reports the Euclidean norm of v: its endpoint's distance from
// the origin, in DistanceTo's arithmetic rather than math.Hypot's, whose
// 386 build is x87 assembly and would round differently across builds.
func (v Vector) Length() float64 { return Point(v).DistanceTo(Point{}) }

// Scale returns v multiplied componentwise by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.X * s, v.Y * s} }

// Normalize returns the unit vector in the direction of v. The zero vector
// normalizes to itself, so callers need not special-case coincident points.
func (v Vector) Normalize() Vector {
	l := v.Length()
	if l == 0 {
		return Vector{}
	}
	return Vector{v.X / l, v.Y / l}
}

// Field is the axis-aligned rectangle [0, Width] x [0, Height] in which
// terminals move. The paper's testing field is 1000 m x 1000 m.
type Field struct {
	Width, Height float64
}

// Contains reports whether p lies within the field (boundaries inclusive).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// Clamp returns the nearest point to p inside the field.
func (f Field) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, 0), f.Width),
		Y: math.Min(math.Max(p.Y, 0), f.Height),
	}
}

// Diagonal reports the field's diagonal length, an upper bound on any
// inter-terminal distance, in the same arithmetic as Vector.Length.
func (f Field) Diagonal() float64 { return Point{f.Width, f.Height}.DistanceTo(Point{}) }
