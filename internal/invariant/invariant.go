// Package invariant checks the simulator's conservation laws on any
// completed run. The checks are deliberately post-hoc — they consume
// only a metrics.Summary, so the same harness applies to a hand-built
// world or a compiled scenario and is safe wherever runs are: in
// parallel tests, in batch workers. The fuzzer and the catalog sweep
// both fail through this package, which keeps "the simulation is
// self-consistent" defined in exactly one place.
//
// The laws, in strength order:
//
//  1. Packet conservation — every generated data packet is delivered,
//     dropped for a recorded reason, or still in flight when the horizon
//     lands (the world drains in-flight packets and counts them in
//     Obs.DrainData).
//  2. Ledger agreement — independently maintained counters that describe
//     the same events must agree: the delay histogram's sample count is
//     the delivery count, the traffic layer's generation counter is the
//     collector's, the adversary-drop counter matches the drop ledger.
//  3. Zero leak — after the end-of-run drain the world's packet arena
//     has every packet back (Summary.PacketsLeaked is 0).
//  4. Replay determinism — running the identical closure twice yields
//     bit-identical fingerprints (checked by Verify).
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"rica/internal/metrics"
	"rica/internal/network"
)

// Fingerprint renders a Summary into an exact, platform-independent
// string: integers verbatim, floats in hex notation (%x) so equality
// means bit-equality, durations in nanoseconds. This is the golden-test
// oracle format — the root package's recorded fingerprints are
// Fingerprint outputs, so the format is load-bearing and must not
// change without regenerating them.
func Fingerprint(s metrics.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d del=%d", s.Generated, s.Delivered)
	reasons := make([]network.DropReason, 0, len(s.Dropped))
	for r := range s.Dropped {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		fmt.Fprintf(&b, " drop[%s]=%d", r, s.Dropped[r])
	}
	fmt.Fprintf(&b, " delay=%d ratio=%x ovh=%x ctl=%d ctldrop=%d",
		s.AvgDelay.Nanoseconds(), s.DeliveryRatio, s.OverheadBps,
		s.ControlPackets, s.ControlDropped)
	fmt.Fprintf(&b, " lt=%x hops=%x csi=%x hopsall=%x csiall=%x maxhops=%d",
		s.AvgLinkThroughputBps, s.AvgHops, s.AvgCSIHops,
		s.AvgHopsAll, s.AvgCSIHopsAll, s.MaxHops)
	fmt.Fprintf(&b, " p50=%d p99=%d max=%d goodput=%x",
		s.Delay.P50.Nanoseconds(), s.Delay.P99.Nanoseconds(),
		s.Delay.Max.Nanoseconds(), s.GoodputBps)
	return b.String()
}

// Violation describes one broken invariant. Law names the rule in a
// stable, grep-friendly form; Detail carries the observed numbers.
type Violation struct {
	Law    string
	Detail string
}

func (v Violation) Error() string { return v.Law + ": " + v.Detail }

// ViolationSet is the error returned when one or more invariants fail;
// it lists every violation rather than stopping at the first, because a
// single underlying bug (say, a lost drop callback) typically breaks
// several ledgers at once and the full set localizes it faster.
type ViolationSet []Violation

func (vs ViolationSet) Error() string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Error()
	}
	return fmt.Sprintf("%d invariant violation(s): %s", len(vs), strings.Join(parts, "; "))
}

// CheckSummary validates every post-hoc invariant a single Summary can
// witness. A nil error means the run's ledgers are self-consistent. The
// replay law needs control over execution and is checked by Verify
// instead.
func CheckSummary(s metrics.Summary) error {
	var vs ViolationSet
	fail := func(law, format string, args ...any) {
		vs = append(vs, Violation{Law: law, Detail: fmt.Sprintf(format, args...)})
	}

	if s.Generated < 0 || s.Delivered < 0 {
		fail("non-negative", "generated=%d delivered=%d", s.Generated, s.Delivered)
	}
	for r, n := range s.Dropped {
		if n < 0 {
			fail("non-negative", "drop[%s]=%d", r, n)
		}
	}
	drops := s.DropTotal()

	if s.Obs != nil {
		// Packet conservation: the world layer counts every data packet
		// still in flight at the horizon as it drains them back to the
		// pool, closing the ledger exactly.
		inFlight := int(s.Obs.DrainData)
		if got := s.Delivered + drops + inFlight; got != s.Generated {
			fail("packet-conservation",
				"delivered %d + dropped %d + in-flight %d = %d, want generated %d",
				s.Delivered, drops, inFlight, got, s.Generated)
		}
		if s.Obs.DelayCount != uint64(s.Delivered) {
			fail("delay-ledger", "delay histogram holds %d samples, %d packets delivered",
				s.Obs.DelayCount, s.Delivered)
		}
		if s.Obs.TrafficGenerated != uint64(s.Generated) {
			fail("generation-ledger", "traffic layer generated %d, collector recorded %d",
				s.Obs.TrafficGenerated, s.Generated)
		}
		if adv := s.Dropped[network.DropAdversary]; s.Obs.AdversaryDrops != uint64(adv) {
			fail("adversary-ledger", "obs counted %d adversary drops, drop ledger %d",
				s.Obs.AdversaryDrops, adv)
		}
		if s.Events != 0 && s.Obs.EventsDispatched != s.Events {
			fail("event-ledger", "obs dispatched %d events, summary reports %d",
				s.Obs.EventsDispatched, s.Events)
		}
		if done := s.Obs.EventsDispatched + s.Obs.TimersCancelled; done > s.Obs.EventsScheduled {
			fail("event-ledger", "dispatched %d + cancelled %d exceeds scheduled %d",
				s.Obs.EventsDispatched, s.Obs.TimersCancelled, s.Obs.EventsScheduled)
		}
		if s.Obs.DrainReleased < s.Obs.DrainData {
			fail("drain-ledger", "total drained %d below data drained %d",
				s.Obs.DrainReleased, s.Obs.DrainData)
		}
	} else if s.Delivered+drops > s.Generated {
		// Without the drain counter the in-flight term is unknown, but it
		// cannot be negative.
		fail("packet-conservation", "delivered %d + dropped %d exceeds generated %d",
			s.Delivered, drops, s.Generated)
	}

	if s.PacketsLeaked != 0 {
		fail("zero-leak", "%d packets still checked out of the world's arena after the drain",
			s.PacketsLeaked)
	}

	switch {
	case s.Generated > 0:
		if want := float64(s.Delivered) / float64(s.Generated); s.DeliveryRatio != want {
			fail("ratio-consistency", "delivery ratio %v, delivered/generated = %v",
				s.DeliveryRatio, want)
		}
	case s.DeliveryRatio != 0:
		fail("ratio-consistency", "delivery ratio %v with zero packets generated", s.DeliveryRatio)
	}
	if s.DeliveryRatio < 0 || s.DeliveryRatio > 1 {
		fail("ratio-consistency", "delivery ratio %v outside [0, 1]", s.DeliveryRatio)
	}

	if vs == nil {
		return nil
	}
	return vs
}
