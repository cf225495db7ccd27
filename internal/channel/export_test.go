package channel

import (
	"math"
	"math/rand"
	"time"
)

// Test-binary-only accessors: no production code can reach a link's
// generator, and none should.

// LinkAtIndex returns the fading link at triangular pair index idx, nil
// if the pair has not met.
func (m *Model) LinkAtIndex(idx int) *Link { return m.links[idx] }

// LinkCount reports how many links the model has created.
func (m *Model) LinkCount() int { return m.nlinks }

// Stream returns the link's private generator.
func (l *Link) Stream() *rand.Rand { return l.rng }

// neverPark is a parkAfter no idle time exceeds.
const neverPark = time.Duration(math.MaxInt64)

// SetParkAfter sets how long a link may go unadvanced before a grid
// rebuild parks it; a negative d never parks.
func (m *Model) SetParkAfter(d time.Duration) {
	if d < 0 {
		d = neverPark
	}
	m.parkAfter = d
}

// HeldVectors reports how many of the model's links have a stream that
// holds its 607-word vector.
func (m *Model) HeldVectors() int {
	n := 0
	for _, l := range m.links {
		if l != nil && l.stream.Held() {
			n++
		}
	}
	return n
}
