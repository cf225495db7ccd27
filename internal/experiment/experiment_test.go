package experiment

import (
	"strings"
	"testing"
	"time"

	"rica/internal/protocol"
)

// ciOptions is the scaled-down grid used to keep CI fast; the shapes the
// paper reports are already visible at this scale.
func ciOptions() Options {
	return Options{
		Speeds:   []float64{0, 36, 72},
		Trials:   2,
		Duration: 40 * time.Second,
		BaseSeed: 1,
	}
}

// onePoint runs a one-point grid: protocol p on the paper field at one
// mean speed and 10 packets/s.
func onePoint(p protocol.Protocol, speedKmh float64, o Options) Result {
	o.Speeds, o.Protocols = []float64{speedKmh}, []protocol.Protocol{p}
	return Sweep(10, o).Cells[p][0]
}

func TestRunAveragesTrials(t *testing.T) {
	res := onePoint(protocol.AODV, 20, Options{Duration: 15 * time.Second, Trials: 3, BaseSeed: 5})
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if res.Mean.DeliveryPercent <= 0 || res.Mean.DeliveryPercent > 100 {
		t.Fatalf("delivery%% = %v", res.Mean.DeliveryPercent)
	}
	// The mean must lie within the trial envelope.
	lo, hi := 101.0, -1.0
	for _, s := range res.Trials {
		v := s.DeliveryRatio * 100
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if res.Mean.DeliveryPercent < lo-1e-9 || res.Mean.DeliveryPercent > hi+1e-9 {
		t.Fatalf("mean %.2f outside trial envelope [%.2f, %.2f]", res.Mean.DeliveryPercent, lo, hi)
	}
}

// TestRunParallelDeterminism: the worker count decides only how long a
// figure takes, never a byte of it.
func TestRunParallelDeterminism(t *testing.T) {
	o := Options{
		Speeds:    []float64{0, 30},
		Protocols: []protocol.Protocol{protocol.RICA, protocol.AODV},
		Duration:  15 * time.Second, Trials: 2, BaseSeed: 2, Parallelism: 4,
	}
	a := Sweep(10, o)
	o.Parallelism = 1
	b := Sweep(10, o)
	for _, m := range []Metric{MetricDelay, MetricDelivery, MetricOverhead} {
		if a.Table(m) != b.Table(m) || a.CSV(m) != b.CSV(m) {
			t.Fatalf("%v differs between 4 workers and 1:\n%s\n%s", m, a.Table(m), b.Table(m))
		}
	}
}

// TestPaperShapes runs the CI-scale grid once and asserts the qualitative
// results of every figure in §III.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol sweep")
	}
	o := ciOptions()
	sweep := Sweep(10, o)
	at := func(p protocol.Protocol, speedIdx int) Averages { return sweep.Cells[p][speedIdx].Mean }
	const static, mid, fast = 0, 1, 2

	// Figure 2 — delay. The channel-adaptive protocols transmit over
	// better links and beat AODV at every mobility point.
	for _, idx := range []int{static, mid, fast} {
		if at(protocol.RICA, idx).DelayMs >= at(protocol.AODV, idx).DelayMs {
			t.Errorf("fig2: RICA delay %.0f not below AODV %.0f at speed idx %d",
				at(protocol.RICA, idx).DelayMs, at(protocol.AODV, idx).DelayMs, idx)
		}
		if at(protocol.BGCA, idx).DelayMs >= at(protocol.AODV, idx).DelayMs {
			t.Errorf("fig2: BGCA delay %.0f not below AODV %.0f at speed idx %d",
				at(protocol.BGCA, idx).DelayMs, at(protocol.AODV, idx).DelayMs, idx)
		}
	}
	// Link state: best delay when static, degrading under mobility.
	if at(protocol.LinkState, static).DelayMs >= at(protocol.AODV, static).DelayMs {
		t.Errorf("fig2: static link-state delay %.0f not below AODV %.0f",
			at(protocol.LinkState, static).DelayMs, at(protocol.AODV, static).DelayMs)
	}
	if at(protocol.LinkState, fast).DelayMs <= at(protocol.LinkState, static).DelayMs {
		t.Errorf("fig2: link-state delay did not rise with mobility: %.0f → %.0f",
			at(protocol.LinkState, static).DelayMs, at(protocol.LinkState, fast).DelayMs)
	}
	// AODV overtakes ABR at high mobility (paper §III.B).
	if at(protocol.ABR, fast).DelayMs <= at(protocol.AODV, fast).DelayMs*0.95 {
		t.Errorf("fig2: ABR delay %.0f clearly below AODV %.0f at 72 km/h; paper expects the opposite",
			at(protocol.ABR, fast).DelayMs, at(protocol.AODV, fast).DelayMs)
	}

	// Figure 3 — delivery. RICA top across the sweep; AODV and link state
	// fall off sharply with speed.
	for _, p := range []protocol.Protocol{protocol.BGCA, protocol.AODV, protocol.ABR, protocol.LinkState} {
		if at(protocol.RICA, fast).DeliveryPercent < at(p, fast).DeliveryPercent {
			t.Errorf("fig3: RICA delivery %.1f%% below %v %.1f%% at 72 km/h",
				at(protocol.RICA, fast).DeliveryPercent, p, at(p, fast).DeliveryPercent)
		}
	}
	if drop := at(protocol.AODV, static).DeliveryPercent - at(protocol.AODV, fast).DeliveryPercent; drop < 15 {
		t.Errorf("fig3: AODV delivery fell only %.1f points with mobility, want a sharp fall", drop)
	}
	if drop := at(protocol.LinkState, static).DeliveryPercent - at(protocol.LinkState, fast).DeliveryPercent; drop < 15 {
		t.Errorf("fig3: link-state delivery fell only %.1f points with mobility", drop)
	}
	if at(protocol.RICA, fast).DeliveryPercent-at(protocol.RICA, static).DeliveryPercent < -15 {
		t.Errorf("fig3: RICA delivery collapsed with mobility (%.1f → %.1f); it should stay high",
			at(protocol.RICA, static).DeliveryPercent, at(protocol.RICA, fast).DeliveryPercent)
	}

	// Figure 4 — overhead ordering at mobility: ABR ≤ AODV < BGCA < RICA
	// ≪ link state, with BGCA ≈ 1.5× and RICA ≈ 4× AODV.
	ao, ab := at(protocol.AODV, fast).OverheadKbps, at(protocol.ABR, fast).OverheadKbps
	bg, ri, ls := at(protocol.BGCA, fast).OverheadKbps, at(protocol.RICA, fast).OverheadKbps, at(protocol.LinkState, fast).OverheadKbps
	if ab > ao*1.05 {
		t.Errorf("fig4: ABR overhead %.0f above AODV %.0f; paper has ABR least", ab, ao)
	}
	if bg <= ao || bg >= ri {
		t.Errorf("fig4: BGCA overhead %.0f not between AODV %.0f and RICA %.0f", bg, ao, ri)
	}
	if ri < ao*2 {
		t.Errorf("fig4: RICA overhead %.0f not well above AODV %.0f (paper: ≈4×)", ri, ao)
	}
	if ls < ri*2 {
		t.Errorf("fig4: link-state overhead %.0f not dominating RICA %.0f", ls, ri)
	}

	// Figure 5 — route quality at 72 km/h.
	q := Quality(72, 10, o)
	qa := func(p protocol.Protocol) Averages { return q.Cells[p].Mean }
	// 5(a): channel-adaptive protocols and Dijkstra pick better links.
	if qa(protocol.RICA).LinkThroughputK <= qa(protocol.AODV).LinkThroughputK ||
		qa(protocol.BGCA).LinkThroughputK <= qa(protocol.AODV).LinkThroughputK {
		t.Errorf("fig5a: RICA %.0f / BGCA %.0f not above AODV %.0f",
			qa(protocol.RICA).LinkThroughputK, qa(protocol.BGCA).LinkThroughputK, qa(protocol.AODV).LinkThroughputK)
	}
	if qa(protocol.LinkState).LinkThroughputK <= qa(protocol.AODV).LinkThroughputK {
		t.Errorf("fig5a: link state %.0f not above AODV %.0f (Dijkstra should pick good links)",
			qa(protocol.LinkState).LinkThroughputK, qa(protocol.AODV).LinkThroughputK)
	}
	diff := qa(protocol.ABR).LinkThroughputK - qa(protocol.AODV).LinkThroughputK
	if diff < -15 || diff > 15 {
		t.Errorf("fig5a: ABR %.0f and AODV %.0f should be close (both channel-oblivious)",
			qa(protocol.ABR).LinkThroughputK, qa(protocol.AODV).LinkThroughputK)
	}
	// 5(b): ABR's stable routes run longer than AODV's; link-state loops
	// show up as packets traversing far beyond the network diameter.
	if qa(protocol.ABR).CSIHops <= qa(protocol.AODV).CSIHops {
		t.Errorf("fig5b: ABR hops %.2f not above AODV %.2f", qa(protocol.ABR).CSIHops, qa(protocol.AODV).CSIHops)
	}
	if qa(protocol.LinkState).MaxHops < 15 {
		t.Errorf("fig5b: link-state max hops %d shows no loops", qa(protocol.LinkState).MaxHops)
	}

	// Figure 6 — aggregate throughput: RICA and BGCA carry the most data.
	series := Series(20, 36, Options{Speeds: o.Speeds, Trials: 2, Duration: 60 * time.Second, BaseSeed: 1})
	for _, p := range []protocol.Protocol{protocol.AODV, protocol.LinkState} {
		if series.MeanSeries(protocol.RICA) <= series.MeanSeries(p) {
			t.Errorf("fig6: RICA mean throughput %.0f not above %v %.0f",
				series.MeanSeries(protocol.RICA), p, series.MeanSeries(p))
		}
		if series.MeanSeries(protocol.BGCA) <= series.MeanSeries(p) {
			t.Errorf("fig6: BGCA mean throughput %.0f not above %v %.0f",
				series.MeanSeries(protocol.BGCA), p, series.MeanSeries(p))
		}
	}

	// Keep the rendered tables sane.
	tbl := sweep.Table(MetricDelay)
	if !strings.Contains(tbl, "RICA") || !strings.Contains(tbl, "km/h") {
		t.Errorf("table rendering broken:\n%s", tbl)
	}
}

func TestSeriesTableRendering(t *testing.T) {
	s := Series(10, 20, Options{Trials: 1, Duration: 20 * time.Second, Protocols: []protocol.Protocol{protocol.AODV}})
	tbl := s.Table()
	if !strings.Contains(tbl, "t (s)") || !strings.Contains(tbl, "AODV") {
		t.Fatalf("series table broken:\n%s", tbl)
	}
	lines := strings.Count(tbl, "\n")
	if lines < 6 {
		t.Fatalf("series table too short (%d lines):\n%s", lines, tbl)
	}
}

func TestQualityTableRendering(t *testing.T) {
	q := Quality(36, 10, Options{Trials: 1, Duration: 15 * time.Second, Protocols: []protocol.Protocol{protocol.AODV, protocol.RICA}})
	tbl := q.Table()
	if !strings.Contains(tbl, "linkTP") || !strings.Contains(tbl, "RICA") {
		t.Fatalf("quality table broken:\n%s", tbl)
	}
}
