package channel

import (
	"math"
	"math/rand"
	"time"
)

// Test-binary-only accessors: no production code can reach a link's
// generator, and none should.

// LinkAtIndex returns the fading link at triangular pair index idx, nil
// if the pair has not met. A parked link's header has no stream.
func (m *Model) LinkAtIndex(idx int) *Link { return m.links[idx] }

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

// GeneratorRecords reports how many link records, each holding one
// generator, the model has allocated: those in use and those on its free
// list.
func (m *Model) GeneratorRecords() int { return len(m.live) + len(m.free) }
