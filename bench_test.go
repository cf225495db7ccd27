// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§III), plus ablations of RICA's design choices. Each
// benchmark iteration executes the figure's full experiment at a reduced
// scale (the -trials/-duration of the ricasim CLI reach paper scale); the
// reported ns/op measures the cost of reproducing that figure once.
package rica_test

import (
	"runtime"
	"testing"
	"time"

	"rica"
	"rica/internal/checkpoint"
	"rica/internal/network"
	ricaproto "rica/internal/routing/rica"
	"rica/internal/world"
)

// benchOptions is the reduced grid benchmarks run per iteration.
func benchOptions() rica.Options {
	return rica.Options{
		Speeds:   []float64{0, 36, 72},
		Trials:   1,
		Duration: 20 * time.Second,
		BaseSeed: 1,
	}
}

// benchSweep regenerates Figures 2/3/4 at one load and reports the metric
// values as benchmark outputs.
func benchSweep(b *testing.B, load float64, m rica.Metric) {
	b.ReportAllocs()
	var last rica.SweepResult
	for i := 0; i < b.N; i++ {
		last = rica.Sweep(load, benchOptions())
	}
	reportSweep(b, last, m)
}

func reportSweep(b *testing.B, s rica.SweepResult, m rica.Metric) {
	for _, p := range s.Order {
		cells := s.Cells[p]
		final := cells[len(cells)-1].Mean
		var v float64
		switch m {
		case rica.MetricDelay:
			v = final.DelayMs
		case rica.MetricDelivery:
			v = final.DeliveryPercent
		case rica.MetricOverhead:
			v = final.OverheadKbps
		}
		b.ReportMetric(v, p.String()+"@72kmh")
	}
}

// Figure 2: average end-to-end delay vs mobile speed.
func BenchmarkFigure2a(b *testing.B) { benchSweep(b, 10, rica.MetricDelay) }
func BenchmarkFigure2b(b *testing.B) { benchSweep(b, 20, rica.MetricDelay) }

// Figure 3: successful percentage of packet delivery vs mobile speed.
func BenchmarkFigure3a(b *testing.B) { benchSweep(b, 10, rica.MetricDelivery) }
func BenchmarkFigure3b(b *testing.B) { benchSweep(b, 20, rica.MetricDelivery) }

// Figure 4: routing overhead vs mobile speed.
func BenchmarkFigure4a(b *testing.B) { benchSweep(b, 10, rica.MetricOverhead) }
func BenchmarkFigure4b(b *testing.B) { benchSweep(b, 20, rica.MetricOverhead) }

// Figure 5: route quality (link throughput and hop counts) at 72 km/h.
func benchQuality(b *testing.B, report func(*testing.B, rica.QualityResult)) {
	b.ReportAllocs()
	var last rica.QualityResult
	for i := 0; i < b.N; i++ {
		last = rica.Quality(72, 10, benchOptions())
	}
	report(b, last)
}

func BenchmarkFigure5a(b *testing.B) {
	benchQuality(b, func(b *testing.B, q rica.QualityResult) {
		for _, p := range q.Order {
			b.ReportMetric(q.Cells[p].Mean.LinkThroughputK, p.String()+"-kbps")
		}
	})
}

func BenchmarkFigure5b(b *testing.B) {
	benchQuality(b, func(b *testing.B, q rica.QualityResult) {
		for _, p := range q.Order {
			b.ReportMetric(q.Cells[p].Mean.CSIHops, p.String()+"-hops")
		}
	})
}

// Figure 6: aggregate network throughput over time.
func benchSeries(b *testing.B, load float64) {
	b.ReportAllocs()
	var last rica.SeriesResult
	for i := 0; i < b.N; i++ {
		last = rica.Series(load, rica.Figure6SpeedKmh, rica.Options{
			Trials: 1, Duration: 40 * time.Second, BaseSeed: 1,
		})
	}
	for _, p := range last.Order {
		b.ReportMetric(last.MeanSeries(p), p.String()+"-kbps")
	}
}

func BenchmarkFigure6a(b *testing.B) { benchSeries(b, 20) }
func BenchmarkFigure6b(b *testing.B) { benchSeries(b, 60) }

// --- Ablations of RICA's design choices (DESIGN.md §7) -------------------

// ricaVariant runs RICA with a modified protocol configuration.
func ricaVariant(b *testing.B, mutate func(*ricaproto.Config)) rica.Summary {
	cfg := world.DefaultConfig(36, 10)
	cfg.Duration = 20 * time.Second
	cfg.Seed = 1
	pcfg := ricaproto.DefaultConfig()
	mutate(&pcfg)
	w := world.New(cfg, func(env network.Env, _ *world.World, _ int) network.Agent {
		return ricaproto.New(env, pcfg)
	})
	return w.Run()
}

// BenchmarkAblationCheckInterval sweeps the CSI-checking period: shorter
// intervals track the channel more closely at a proportional overhead
// cost.
func BenchmarkAblationCheckInterval(b *testing.B) {
	for _, interval := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			var s rica.Summary
			for i := 0; i < b.N; i++ {
				s = ricaVariant(b, func(c *ricaproto.Config) { c.CheckInterval = interval })
			}
			b.ReportMetric(s.DeliveryRatio*100, "delivery%")
			b.ReportMetric(s.OverheadBps/1000, "overhead-kbps")
			b.ReportMetric(float64(s.AvgDelay.Milliseconds()), "delay-ms")
		})
	}
}

// BenchmarkAblationTTL compares TTL-scoped checking packets (the paper's
// bandwidth-saving design) against full network floods.
func BenchmarkAblationTTL(b *testing.B) {
	for _, full := range []bool{false, true} {
		full := full
		name := "scoped"
		if full {
			name = "full-flood"
		}
		b.Run(name, func(b *testing.B) {
			var s rica.Summary
			for i := 0; i < b.N; i++ {
				s = ricaVariant(b, func(c *ricaproto.Config) { c.FullFloodCSIC = full })
			}
			b.ReportMetric(s.DeliveryRatio*100, "delivery%")
			b.ReportMetric(s.OverheadBps/1000, "overhead-kbps")
		})
	}
}

// BenchmarkAblationCollectWindow compares the destination's 40 ms RREQ
// gathering window against AODV-style first-RREQ replies.
func BenchmarkAblationCollectWindow(b *testing.B) {
	for _, window := range []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond} {
		window := window
		b.Run(window.String(), func(b *testing.B) {
			var s rica.Summary
			for i := 0; i < b.N; i++ {
				s = ricaVariant(b, func(c *ricaproto.Config) { c.CollectWindow = window })
			}
			b.ReportMetric(s.DeliveryRatio*100, "delivery%")
			b.ReportMetric(float64(s.AvgDelay.Milliseconds()), "delay-ms")
		})
	}
}

// BenchmarkAblationBuffer sweeps the per-link buffer capacity the paper
// fixes at 10 packets.
func BenchmarkAblationBuffer(b *testing.B) {
	for _, cap := range []int{5, 10, 20} {
		cap := cap
		b.Run(sizeName(cap), func(b *testing.B) {
			var s rica.Summary
			for i := 0; i < b.N; i++ {
				r := paperRun(b, rica.ProtocolRICA, 36, 20, 20*time.Second, 1)
				r.Scenario.BufferCap = cap
				s = mustRun(b, r, rica.RunOptions{})
			}
			b.ReportMetric(s.DeliveryRatio*100, "delivery%")
			b.ReportMetric(float64(s.AvgDelay.Milliseconds()), "delay-ms")
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 5:
		return "cap-5"
	case 10:
		return "cap-10"
	default:
		return "cap-20"
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed: events
// executed per wall second for a mid-scale RICA run.
func BenchmarkSimulationThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		events += mustRun(b, paperRun(b, rica.ProtocolRICA, 36, 10, 30*time.Second, int64(i+1)), rica.RunOptions{}).Events
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// BenchmarkInstrumentedThroughput is BenchmarkSimulationThroughput with
// the full observability surface engaged: a caller-supplied registry, a
// hub aggregating it (the -statsaddr path).
// Its allocation budget in scripts/alloc_budget.txt matches the plain
// benchmark's — the gate that counters, gauges, and histogram observes
// stay allocation-free on the hot path.
func BenchmarkInstrumentedThroughput(b *testing.B) {
	b.ReportAllocs()
	hub := rica.NewObsHub()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		reg := rica.NewObsRegistry()
		hub.Attach(reg)
		s := mustRun(b, paperRun(b, rica.ProtocolRICA, 36, 10, 30*time.Second, int64(i+1)), rica.RunOptions{Obs: reg})
		hub.Detach(reg)
		events += s.Events
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
	if snap := hub.Snapshot(); snap.EventsDispatched != events {
		b.Fatalf("hub folded %d events, runs reported %d", snap.EventsDispatched, events)
	}
}

// BenchmarkGossipThroughput measures the epidemic workload: gossip-200
// (200 terminals, push-rumor traffic where every delivery mints a new
// sender) under RICA at a truncated horizon. This is the flood-heaviest
// traffic shape the engine runs; the allocs/op budget in
// scripts/alloc_budget.txt guards the per-push path against creeping
// allocations.
func BenchmarkGossipThroughput(b *testing.B) {
	spec, err := rica.ScenarioByName("gossip-200")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		events += mustRun(b, rica.ScenarioRun{
			Scenario: spec, Protocol: rica.ProtocolRICA,
			Seed: int64(i + 1), MaxDuration: 5 * time.Second,
		}, rica.RunOptions{}).Events
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// BenchmarkJammerThroughput measures the interference workload: the
// jammer-grid scenario (two CSMA-oblivious noise sources inside a
// static lattice) under RICA. Jam bursts ride the common-channel airtime
// path without the data-plane lifecycle, so the budget in
// scripts/alloc_budget.txt pins the burst scheduling loop specifically.
func BenchmarkJammerThroughput(b *testing.B) {
	spec, err := rica.ScenarioByName("jammer-grid")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		events += mustRun(b, rica.ScenarioRun{
			Scenario: spec, Protocol: rica.ProtocolRICA,
			Seed: int64(i + 1), MaxDuration: 10 * time.Second,
		}, rica.RunOptions{}).Events
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// BenchmarkAblationAdaptiveCheck compares the fixed 1 s checking period
// against the volatility-adaptive one (the paper's aside that the period
// should follow "the change speed of the link CSI").
func BenchmarkAblationAdaptiveCheck(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		adaptive := adaptive
		name := "fixed-1s"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var s rica.Summary
			for i := 0; i < b.N; i++ {
				s = ricaVariant(b, func(c *ricaproto.Config) { c.AdaptiveCheck = adaptive })
			}
			b.ReportMetric(s.DeliveryRatio*100, "delivery%")
			b.ReportMetric(s.OverheadBps/1000, "overhead-kbps")
			b.ReportMetric(float64(s.AvgDelay.Milliseconds()), "delay-ms")
		})
	}
}

// BenchmarkCheckpointCapture measures what one snapshot costs the run
// that takes it: the paper's cell run to t=100 s once, then one digest
// capture per op. Capture streams live state into a hash, so it must
// allocate nothing that grows with the state, and what it streams must
// stay a description of the state, not a copy of the generators behind
// it: one capture here encodes 85 KB (a stream is its id and draw count;
// its 607-word vector would make that 3.4 MB), and the byte budget below
// — the next power of two above four times that — trips on every box,
// whatever its clock, when a vector creeps back into a section. The
// allocs/op budget in scripts/alloc_budget.txt catches a payload grown
// by appends on the snapshot path; the allocation check catches one
// allocated at its final size, which is a single allocation.
func BenchmarkCheckpointCapture(b *testing.B) {
	const fedBudget = 512 << 10
	w := startedWorld(b, "paper-baseline", rica.ProtocolRICA, 1, 0)
	w.RunTo(100 * time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	fed := 0
	for i := 0; i < b.N; i++ {
		e := checkpoint.NewDigestEnc()
		if _, err := w.Capture(e); err != nil {
			b.Fatal(err)
		}
		fed = e.Fed()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > 256<<10 {
		b.Fatalf("one capture allocates %d KB: a payload is being materialised on the snapshot path", perOp>>10)
	}
	if fed > fedBudget {
		b.Fatalf("one capture feeds the hashes %d KB, budget %d KB: a section is encoding bulk state again", fed>>10, fedBudget>>10)
	}
	b.ReportMetric(float64(fed), "fed-B/op")
}
