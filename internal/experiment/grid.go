// Package experiment reproduces the paper's evaluation (§III) as shaping
// over the batch engine: a figure point — the §III.A field at a mean
// speed, a per-flow load and a horizon — is a scenario spec, a figure is
// one speeds × protocols × trials grid of them submitted to batch.Run,
// and this package folds the grid-ordered cells into every figure's rows
// — end-to-end delay (Figure 2), delivery percentage (Figure 3), routing
// overhead (Figure 4), route quality (Figure 5), and the
// aggregate-throughput time series (Figure 6).
package experiment

import (
	"fmt"
	"time"

	"rica/internal/batch"
	"rica/internal/metrics"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// RICA and Factory are the protocol package's, under the names the
// benchmark module's layer ledger compiles against.
const RICA = protocol.RICA

// Factory is protocol.Factory.
func Factory(p protocol.Protocol, rate float64) world.AgentFactory {
	return protocol.Factory(p, rate)
}

// FieldSpec is the paper's §III.A field at one figure point: the
// paper-baseline builtin with its mean speed, per-flow load and horizon
// overridden, named after the point so a failed cell says where it was.
// The error is Spec.Validate's — the one rule for what a point may be.
func FieldSpec(speedKmh, load float64, horizon time.Duration) (scenario.Spec, error) {
	s, err := scenario.ByName("paper-baseline")
	if err != nil {
		panic(err) // the catalog is compiled in: a bug, not an input
	}
	s.Name = fmt.Sprintf("paper-field-%gkmh-%gpps", speedKmh, load)
	s.Topology.MeanSpeedKmh = speedKmh
	s.Traffic.Rate = load
	s.Duration = scenario.Duration(horizon)
	return s, s.Validate()
}

// Result is one (protocol, speed, load) point: its trials and their
// across-trial average.
type Result struct {
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

// grid runs the speeds × protocols × trials grid at one load as a single
// batch — trial t on seed BaseSeed+t, Parallelism workers across the
// whole grid — and returns rows[p][i], protocol p at speeds[i]. An
// invalid point panics with the validator's error, and a poisoned cell
// panics with its coordinates and stack: a figure is its every cell, so
// one that could not be measured fails the figure instead of thinning an
// average.
func (o Options) grid(load float64, speeds []float64) map[protocol.Protocol][]Result {
	cfg := batch.Config{
		Scenarios: make([]scenario.Spec, len(speeds)),
		Protocols: o.Protocols,
		Trials:    o.Trials,
		BaseSeed:  o.BaseSeed,
		Workers:   o.Parallelism,
		Hub:       o.Hub,
	}
	for i, speed := range speeds {
		spec, err := FieldSpec(speed, load, o.Duration)
		if err != nil {
			panic(err)
		}
		cfg.Scenarios[i] = spec
	}
	res, err := batch.Run(cfg)
	if err != nil {
		panic(err)
	}
	rows := make(map[protocol.Protocol][]Result, len(o.Protocols))
	for _, p := range o.Protocols {
		rows[p] = make([]Result, len(speeds))
	}
	cells := res.Cells // scenario-major, then protocol, then trial
	for i := range speeds {
		for _, p := range o.Protocols {
			trials := make([]metrics.Summary, o.Trials)
			for t := range trials {
				c := cells[t]
				if c.Poisoned() {
					panic(fmt.Sprintf("experiment: figure cell %s/%s seed=%d could not be measured: %s\n%s",
						c.Scenario, c.Protocol, c.Seed, c.Error, c.Stack))
				}
				trials[t] = *c.Summary
			}
			cells = cells[o.Trials:]
			rows[p][i] = Result{Trials: trials, Mean: average(trials)}
		}
	}
	return rows
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
