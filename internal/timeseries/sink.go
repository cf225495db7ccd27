package timeseries

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Run identifies the simulation a timeline came from — the batch engine
// stamps the scenario/protocol/seed cell coordinates, standalone runs
// fill in what they know.
type Run struct {
	Scenario string `json:"scenario,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	Seed     int64  `json:"seed"`
}

// Sink consumes finished timelines, one Emit per simulation run. The
// batch engine calls Emit serially, in deterministic grid order, after
// all cells have completed — implementations need no locking, and equal
// batches produce byte-identical streams regardless of parallelism.
type Sink interface {
	Emit(run Run, tl Timeline) error
}

// JSONLSink streams timelines as JSON Lines: one object per interval,
// carrying the run coordinates alongside every Point field, so the
// output is trivially greppable and loads straight into dataframe
// tooling without nested-JSON handling.
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink builds a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// jsonlRow flattens the run coordinates into each interval object.
type jsonlRow struct {
	Run
	IntervalS float64 `json:"interval_s"`
	Point
}

// Emit implements Sink.
func (s *JSONLSink) Emit(run Run, tl Timeline) error {
	enc := json.NewEncoder(s.w) // Encode appends the newline per row
	for _, p := range tl.Points {
		if err := enc.Encode(jsonlRow{Run: run, IntervalS: tl.IntervalS, Point: p}); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader names the CSV columns, aligned with the Fprintf in Emit.
const csvHeader = "scenario,protocol,seed,interval_s,i,t_s," +
	"generated,delivered,delivery_ratio," +
	"avg_delay_ms,p50_delay_ms,p95_delay_ms,goodput_kbps," +
	"control_packets,control_dropped,overhead_kbps," +
	"drop_congestion,drop_expired,drop_no_route,drop_link_break,drop_adversary," +
	"route_installs,route_invalidations\n"

// CSVSink streams timelines as comma-separated values: a header once,
// then one row per interval with the run coordinates in the leading
// columns.
type CSVSink struct {
	w           io.Writer
	wroteHeader bool
}

// NewCSVSink builds a sink writing CSV to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: w} }

// csvField quotes a string field per RFC 4180 when it contains a comma,
// quote, or newline — scenario names are free text, and a raw comma
// would shift every downstream column.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Emit implements Sink.
func (s *CSVSink) Emit(run Run, tl Timeline) error {
	if !s.wroteHeader {
		if _, err := io.WriteString(s.w, csvHeader); err != nil {
			return err
		}
		s.wroteHeader = true
	}
	for _, p := range tl.Points {
		_, err := fmt.Fprintf(s.w,
			"%s,%s,%d,%g,%d,%g,%d,%d,%.4f,%.3f,%.3f,%.3f,%.3f,%d,%d,%.3f,%d,%d,%d,%d,%d,%d,%d\n",
			csvField(run.Scenario), csvField(run.Protocol), run.Seed, tl.IntervalS, p.Index, p.StartS,
			p.Generated, p.Delivered, p.DeliveryRatio,
			p.AvgDelayMs, p.P50DelayMs, p.P95DelayMs, p.GoodputKbps,
			p.ControlPackets, p.ControlDropped, p.OverheadKbps,
			p.DropCongestion, p.DropExpired, p.DropNoRoute, p.DropLinkBreak, p.DropAdversary,
			p.RouteInstalls, p.RouteInvalidations)
		if err != nil {
			return err
		}
	}
	return nil
}

// Emitted is one timeline retained by a MemorySink.
type Emitted struct {
	Run      Run
	Timeline Timeline
}

// MemorySink retains every emitted timeline in order, for programmatic
// consumers (examples, tests, custom plotting).
type MemorySink struct {
	// Runs holds the emitted timelines in emission (grid) order.
	Runs []Emitted
}

// Emit implements Sink.
func (s *MemorySink) Emit(run Run, tl Timeline) error {
	s.Runs = append(s.Runs, Emitted{Run: run, Timeline: tl})
	return nil
}
