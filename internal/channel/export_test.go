package channel

import "math/rand"

// Test-binary-only accessors: no production code can reach a link's
// generator, and none should.

// LinkAtIndex returns the live fading link at triangular pair index idx,
// nil if the pair has not met.
func (m *Model) LinkAtIndex(idx int) *Link { return m.links[idx] }

// Stream returns the link's private generator.
func (l *Link) Stream() *rand.Rand { return l.rng }
