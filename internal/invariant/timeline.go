package invariant

import (
	"fmt"

	"rica/internal/timeseries"
)

// Timeline monotonicity laws. The interval timeline reports per-bucket
// deltas of counters that are cumulative by nature: packets generated,
// delivered, dropped, control transmissions, route churn. Integrated
// over time those totals can only grow — a negative bucket means a
// counter ran backwards. And because a packet must be generated before
// it is delivered or dropped, the cumulative books must balance at
// every interval boundary, not just at the horizon: at any prefix of
// the timeline, delivered + dropped can never exceed generated.
//
// CheckTimeline holds a finished timeline to those laws:
//
//  1. Indexing — Points[i].Index == i and StartS strictly increases by
//     the interval width (a shuffled or duplicated timeline fails
//     before any counter is read).
//  2. Per-interval non-negativity — every counter delta ≥ 0, which is
//     exactly "every cumulative counter is non-decreasing".
//  3. Prefix conservation — cumulative delivered + cumulative drops ≤
//     cumulative generated after every interval.
func CheckTimeline(tl timeseries.Timeline) error {
	var vs ViolationSet
	fail := func(law, format string, args ...any) {
		vs = append(vs, Violation{Law: law, Detail: fmt.Sprintf(format, args...)})
	}
	if tl.IntervalS <= 0 && len(tl.Points) > 0 {
		fail("timeline-interval", "interval %v s with %d points", tl.IntervalS, len(tl.Points))
	}

	var cumGen, cumDel, cumDrop int64
	for i, p := range tl.Points {
		if p.Index != i {
			fail("timeline-index", "point %d carries index %d", i, p.Index)
			break // indices are unusable; counter laws would misattribute
		}
		want := float64(i) * tl.IntervalS
		if diff := p.StartS - want; diff > 1e-9 || diff < -1e-9 {
			fail("timeline-index", "point %d starts at %v s, want %v s", i, p.StartS, want)
		}

		counters := []struct {
			name string
			v    int64
		}{
			{"generated", int64(p.Generated)},
			{"delivered", int64(p.Delivered)},
			{"control_packets", p.ControlPackets},
			{"control_dropped", p.ControlDropped},
			{"drop_congestion", int64(p.DropCongestion)},
			{"drop_expired", int64(p.DropExpired)},
			{"drop_no_route", int64(p.DropNoRoute)},
			{"drop_link_break", int64(p.DropLinkBreak)},
			{"drop_adversary", int64(p.DropAdversary)},
			{"route_installs", int64(p.RouteInstalls)},
			{"route_invalidations", int64(p.RouteInvalidations)},
		}
		for _, c := range counters {
			if c.v < 0 {
				fail("timeline-monotone", "interval %d: cumulative %s decreases (delta %d)", i, c.name, c.v)
			}
		}

		cumGen += int64(p.Generated)
		cumDel += int64(p.Delivered)
		cumDrop += int64(p.DropCongestion + p.DropExpired + p.DropNoRoute + p.DropLinkBreak + p.DropAdversary)
		if cumDel+cumDrop > cumGen {
			fail("timeline-conservation",
				"after interval %d: cumulative delivered %d + dropped %d exceeds generated %d",
				i, cumDel, cumDrop, cumGen)
		}
	}
	if vs != nil {
		return vs
	}
	return nil
}
