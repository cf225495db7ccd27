package experiment

import (
	"runtime"
	"sync"
	"time"

	"rica/internal/metrics"
	"rica/internal/world"
)

// RunConfig describes one experimental cell: a protocol at a mobility and
// load point, repeated over trials.
type RunConfig struct {
	Protocol Protocol
	// MeanSpeedKmh is the mean terminal speed, the paper's x-axis; the
	// waypoint model draws uniform speeds in [0, 2×mean].
	MeanSpeedKmh float64
	// Rate is the per-flow offered load in packets/s (paper: 10 and 20,
	// plus 60 in Figure 6b).
	Rate float64
	// Duration is the simulated horizon (paper: 500 s).
	Duration time.Duration
	// Trials is how many seeds to average (paper: 25).
	Trials int
	// BaseSeed offsets the trial seeds; trial t uses BaseSeed + t.
	BaseSeed int64
	// Parallelism caps concurrent trials; 0 means GOMAXPROCS.
	Parallelism int
}

// Result is the across-trial average of one cell.
type Result struct {
	Config RunConfig
	Trials []metrics.Summary
	Mean   Averages
}

// Averages holds the across-trial means of the reported metrics.
type Averages struct {
	DelayMs          float64
	DeliveryPercent  float64
	OverheadKbps     float64
	LinkThroughputK  float64 // kbps per traversed hop (Figure 5a)
	CSIHops          float64 // the paper's hop unit (Figure 5b)
	GeoHops          float64
	MaxHops          int
	GoodputKbps      float64
	ThroughputSeries []float64 // kbps per 4 s bucket (Figure 6)
}

// Run executes the cell's trials (in parallel, each fully deterministic in
// its seed) and averages them.
func Run(cfg RunConfig) Result {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > cfg.Trials {
		par = cfg.Trials
	}

	summaries := make([]metrics.Summary, cfg.Trials)
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for t := 0; t < cfg.Trials; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			summaries[t] = runTrial(cfg, cfg.BaseSeed+int64(t))
		}(t)
	}
	wg.Wait()
	return Result{Config: cfg, Trials: summaries, Mean: average(summaries)}
}

// runTrial builds and runs one world.
func runTrial(cfg RunConfig, seed int64) metrics.Summary {
	wcfg := world.DefaultConfig(cfg.MeanSpeedKmh, cfg.Rate)
	wcfg.Duration = cfg.Duration
	wcfg.Seed = seed
	return world.New(wcfg, Factory(cfg.Protocol, cfg.Rate)).Run()
}

// average folds trial summaries into Averages.
func average(ss []metrics.Summary) Averages {
	var a Averages
	if len(ss) == 0 {
		return a
	}
	maxSeries := 0
	for _, s := range ss {
		if len(s.ThroughputSeries) > maxSeries {
			maxSeries = len(s.ThroughputSeries)
		}
	}
	a.ThroughputSeries = make([]float64, maxSeries)
	n := float64(len(ss))
	for _, s := range ss {
		a.DelayMs += float64(s.AvgDelay.Milliseconds()) / n
		a.DeliveryPercent += s.DeliveryRatio * 100 / n
		a.OverheadKbps += s.OverheadBps / 1000 / n
		a.LinkThroughputK += s.AvgLinkThroughputBps / 1000 / n
		a.CSIHops += s.AvgCSIHops / n
		a.GeoHops += s.AvgHops / n
		a.GoodputKbps += s.GoodputBps / 1000 / n
		if s.MaxHops > a.MaxHops {
			a.MaxHops = s.MaxHops
		}
		for i, v := range s.ThroughputSeries {
			a.ThroughputSeries[i] += v / 1000 / n
		}
	}
	return a
}
