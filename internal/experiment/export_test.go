package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"rica/internal/protocol"
)

func tinyOptions(protocols ...protocol.Protocol) Options {
	return Options{
		Speeds:    []float64{0, 36},
		Protocols: protocols,
		Trials:    1,
		Duration:  10 * time.Second,
		BaseSeed:  1,
	}
}

func TestSweepCSVWellFormed(t *testing.T) {
	sweep := Sweep(10, tinyOptions(protocol.AODV, protocol.RICA))
	csv := sweep.CSV(MetricDelivery)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + 2 speeds
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "speed_kmh,AODV,RICA" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != 3 {
			t.Fatalf("row %q has %d cells", line, len(cells))
		}
		for _, cell := range cells {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("cell %q not numeric: %v", cell, err)
			}
		}
	}
}

func TestQualityCSVWellFormed(t *testing.T) {
	q := Quality(36, 10, tinyOptions(protocol.AODV))
	csv := q.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[1], "AODV,") {
		t.Fatalf("row = %q", lines[1])
	}
	if got := strings.Count(lines[1], ","); got != 4 {
		t.Fatalf("row has %d commas, want 4", got)
	}
}

func TestSeriesCSVAndChart(t *testing.T) {
	s := Series(10, 18, tinyOptions(protocol.AODV, protocol.RICA))
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "t_seconds,AODV,RICA" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("series too short:\n%s", csv)
	}
	chart := s.Chart()
	if !strings.Contains(chart, "legend:") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "A=AODV") || !strings.Contains(chart, "R=RICA") {
		t.Fatalf("chart legend incomplete:\n%s", chart)
	}
	// Both glyphs must actually appear in the plot area.
	body := chart[:strings.Index(chart, "legend:")]
	if !strings.Contains(body, "A") || !strings.Contains(body, "R") {
		t.Fatalf("chart body missing curves:\n%s", chart)
	}
	if h := strings.Count(chart, "\n"); h < chartHeight {
		t.Fatalf("chart height %d too small", h)
	}
}

func TestChartEmptySeries(t *testing.T) {
	s := SeriesResult{Order: []protocol.Protocol{protocol.AODV}, Cells: map[protocol.Protocol]Result{protocol.AODV: {}}}
	if got := s.Chart(); got != "(no data)\n" {
		t.Fatalf("empty chart = %q", got)
	}
}
