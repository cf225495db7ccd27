package invariant

import (
	"strings"
	"testing"
	"time"

	"rica/internal/metrics"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
)

// consistent builds a Summary every check accepts: 10 generated, 6
// delivered, 3 dropped, 1 still in flight, with agreeing ledgers.
func consistent() metrics.Summary {
	return metrics.Summary{
		Generated: 10,
		Delivered: 6,
		Dropped: map[network.DropReason]int{
			network.DropCongestion: 2,
			network.DropAdversary:  1,
		},
		DeliveryRatio: 0.6,
		Events:        500,
		Obs: &obs.Snapshot{
			EventsDispatched: 500,
			EventsScheduled:  620,
			TimersCancelled:  100,
			TrafficGenerated: 10,
			AdversaryDrops:   1,
			DrainReleased:    4,
			DrainData:        1,
			DelayCount:       6,
		},
	}
}

func TestCheckSummaryAcceptsConsistentRun(t *testing.T) {
	if err := CheckSummary(consistent()); err != nil {
		t.Fatalf("consistent summary rejected: %v", err)
	}
}

func TestCheckSummaryViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*metrics.Summary)
		wantLaw string
	}{
		{"lost packet", func(s *metrics.Summary) { s.Obs.DrainData = 0 }, "packet-conservation"},
		{"phantom delivery", func(s *metrics.Summary) { s.Delivered++ }, "packet-conservation"},
		{"delay ledger", func(s *metrics.Summary) { s.Obs.DelayCount = 5 }, "delay-ledger"},
		{"generation ledger", func(s *metrics.Summary) { s.Obs.TrafficGenerated = 9 }, "generation-ledger"},
		{"adversary ledger", func(s *metrics.Summary) { s.Obs.AdversaryDrops = 7 }, "adversary-ledger"},
		{"event count", func(s *metrics.Summary) { s.Events = 400 }, "event-ledger"},
		{"over-dispatch", func(s *metrics.Summary) { s.Obs.EventsScheduled = 400 }, "event-ledger"},
		{"drain split", func(s *metrics.Summary) { s.Obs.DrainReleased = 0 }, "drain-ledger"},
		{"negative drops", func(s *metrics.Summary) {
			s.Dropped[network.DropCongestion] = -2
		}, "non-negative"},
		{"stale ratio", func(s *metrics.Summary) { s.DeliveryRatio = 0.5 }, "ratio-consistency"},
		{"ratio from nothing", func(s *metrics.Summary) {
			*s = metrics.Summary{DeliveryRatio: 1}
		}, "ratio-consistency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := consistent()
			tc.mutate(&s)
			err := CheckSummary(s)
			if err == nil {
				t.Fatalf("mutation not flagged")
			}
			if !strings.Contains(err.Error(), tc.wantLaw) {
				t.Fatalf("violation %q does not cite law %q", err, tc.wantLaw)
			}
		})
	}
}

// TestCheckSummaryViolationOrder: violations over the drop map come out
// in drop-reason order, so one summary always reads as one error.
func TestCheckSummaryViolationOrder(t *testing.T) {
	s := consistent()
	s.Dropped[network.DropCongestion] = -1
	s.Dropped[network.DropNoRoute] = -2
	s.Dropped[network.DropAdversary] = -3
	want := CheckSummary(s).Error()
	if c, n, a := strings.Index(want, "drop[congestion]"), strings.Index(want, "drop[no-route]"), strings.Index(want, "drop[adversary]"); c < 0 || !(c < n && n < a) {
		t.Fatalf("negative drops out of reason order: %q", want)
	}
	for i := range 100 {
		if got := CheckSummary(s).Error(); got != want {
			t.Fatalf("call %d reads\n%q\nthe first read\n%q", i+2, got, want)
		}
	}
}

func TestCheckSummaryWithoutObs(t *testing.T) {
	s := consistent()
	s.Obs = nil
	// In flight is unknowable without the drain counter: 6+3 ≤ 10 passes.
	if err := CheckSummary(s); err != nil {
		t.Fatalf("obs-less summary rejected: %v", err)
	}
	s.Delivered = 9 // 9+3 > 10
	if err := CheckSummary(s); err == nil || !strings.Contains(err.Error(), "packet-conservation") {
		t.Fatalf("obs-less over-accounting not flagged: %v", err)
	}
}

func TestViolationSetListsEveryLaw(t *testing.T) {
	s := consistent()
	s.Obs.DelayCount = 0
	s.Obs.TrafficGenerated = 0
	err := CheckSummary(s)
	vs, ok := err.(ViolationSet)
	if !ok {
		t.Fatalf("error is %T, want ViolationSet", err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want both broken ledgers: %v", len(vs), err)
	}
}

func TestFingerprintFormat(t *testing.T) {
	s := consistent()
	s.AvgDelay = 1500 * time.Microsecond
	got := Fingerprint(s)
	// The format is the golden-test oracle; pin its load-bearing pieces.
	for _, want := range []string{
		"gen=10 del=6",
		"drop[congestion]=2",
		"drop[adversary]=1",
		"delay=1500000",
		"ratio=0x1.3333333333333p-01",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fingerprint %q missing %q", got, want)
		}
	}
	// Drop reasons render in enum order regardless of map iteration.
	if c, a := strings.Index(got, "drop[congestion]"), strings.Index(got, "drop[adversary]"); a < c {
		t.Errorf("drop reasons out of enum order: %q", got)
	}
}

func TestVerifyPassesDeterministicRun(t *testing.T) {
	runs := 0
	s, err := Verify(func() metrics.Summary {
		runs++
		return consistent()
	})
	if err != nil {
		t.Fatalf("deterministic run rejected: %v", err)
	}
	if runs != 2 {
		t.Fatalf("Verify ran the closure %d times, want 2 (replay check)", runs)
	}
	if s.Generated != 10 {
		t.Fatalf("Verify returned the wrong summary: %+v", s)
	}
}

func TestVerifyCatchesNondeterminism(t *testing.T) {
	runs := 0
	_, err := Verify(func() metrics.Summary {
		runs++
		s := consistent()
		if runs == 2 {
			s.Delivered, s.Dropped[network.DropCongestion] = 5, 3
			s.DeliveryRatio = 0.5
			s.Obs.DelayCount = 5
		}
		return s
	})
	if err == nil || !strings.Contains(err.Error(), "replay-determinism") {
		t.Fatalf("diverging replay not flagged: %v", err)
	}
}

func TestVerifyCatchesLeak(t *testing.T) {
	_, err := Verify(func() metrics.Summary {
		arena := packet.NewArena()
		arena.Get() // never released: what world.Finish would find after its drain
		s := consistent()
		s.PacketsLeaked = arena.Live()
		return s
	})
	if err == nil || !strings.Contains(err.Error(), "zero-leak") {
		t.Fatalf("leaked packet not flagged: %v", err)
	}
}

func TestVerifyStopsOnFirstRunViolation(t *testing.T) {
	runs := 0
	_, err := Verify(func() metrics.Summary {
		runs++
		s := consistent()
		s.Obs.DrainData = 0
		return s
	})
	if err == nil || !strings.Contains(err.Error(), "packet-conservation") {
		t.Fatalf("broken first run not flagged: %v", err)
	}
	if runs != 1 {
		t.Fatalf("Verify replayed a run that already failed (%d runs)", runs)
	}
}
