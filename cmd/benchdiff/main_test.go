package main

import (
	"math"
	"strings"
	"testing"
)

// golden pre/post records covering the pairing matrix: a benchmark in
// both files, one only in the baseline, one only in the post run.
func goldenRecords() (benchRecord, benchRecord) {
	base := benchRecord{
		Label: "v7-baseline",
		Go:    "go1.21",
		Benchmarks: []benchLine{
			{Name: "BenchmarkSingleRun", NsPerOp: 2000, BytesPerOp: 4096, AllocsPerOp: 10, EventsPerSec: 1e6},
			{Name: "BenchmarkRetired", NsPerOp: 500, BytesPerOp: 64, AllocsPerOp: 1},
		},
	}
	post := benchRecord{
		Label: "v8-post",
		Go:    "go1.21",
		Benchmarks: []benchLine{
			{Name: "BenchmarkSingleRun", NsPerOp: 1000, BytesPerOp: 1024, AllocsPerOp: 4, EventsPerSec: 2.5e6},
			{Name: "BenchmarkNew", NsPerOp: 300, BytesPerOp: 32, AllocsPerOp: 2},
		},
	}
	return base, post
}

func findDelta(t *testing.T, rep report, name string) delta {
	t.Helper()
	for _, d := range rep.Deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("report has no delta for %s: %+v", name, rep.Deltas)
	return delta{}
}

func TestBuildReportGoldenDelta(t *testing.T) {
	base, post := goldenRecords()
	rep := buildReport(base, post)

	if rep.Baseline != "v7-baseline" || rep.Post != "v8-post" {
		t.Fatalf("labels not carried through: %q vs %q", rep.Baseline, rep.Post)
	}
	if len(rep.Deltas) != 3 {
		t.Fatalf("want 3 deltas (paired, baseline-only, post-only), got %d", len(rep.Deltas))
	}

	d := findDelta(t, rep, "BenchmarkSingleRun")
	if d.SpeedupNs != 2.0 {
		t.Errorf("speedup_ns = %v, want 2.0 (baseline/post ns)", d.SpeedupNs)
	}
	if d.AllocsRatio != 2.5 {
		t.Errorf("allocs_ratio = %v, want 2.5", d.AllocsRatio)
	}
	if d.BytesRatio != 4.0 {
		t.Errorf("bytes_ratio = %v, want 4.0", d.BytesRatio)
	}
	if d.EventsRatio != 2.5 {
		t.Errorf("events_per_sec_ratio = %v, want 2.5 (post/baseline)", d.EventsRatio)
	}
	if d.BaselineOnly || d.PostOnly {
		t.Errorf("paired benchmark flagged one-sided: %+v", d)
	}

	if d := findDelta(t, rep, "BenchmarkRetired"); !d.BaselineOnly || d.PostOnly || d.SpeedupNs != 0 {
		t.Errorf("baseline-only benchmark misreported: %+v", d)
	}
	if d := findDelta(t, rep, "BenchmarkNew"); !d.PostOnly || d.BaselineOnly || d.SpeedupNs != 0 {
		t.Errorf("post-only benchmark misreported: %+v", d)
	}

	want := "BenchmarkSingleRun: 2.00x time, 2.50x events/sec, 2.50x allocs"
	if rep.Summary != want {
		t.Errorf("summary = %q, want %q", rep.Summary, want)
	}
}

// Missing events/sec on either side must suppress the ratio rather than
// divide by zero, and a zero-valued metric yields ratio 0, not Inf.
func TestBuildReportDegenerateMetrics(t *testing.T) {
	base := benchRecord{Label: "a", Benchmarks: []benchLine{
		{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
	}}
	post := benchRecord{Label: "b", Benchmarks: []benchLine{
		{Name: "BenchmarkX", NsPerOp: 50, BytesPerOp: 0, AllocsPerOp: 3, EventsPerSec: 1e5},
	}}
	rep := buildReport(base, post)
	d := findDelta(t, rep, "BenchmarkX")
	if d.SpeedupNs != 2.0 {
		t.Errorf("speedup_ns = %v, want 2.0", d.SpeedupNs)
	}
	if d.AllocsRatio != 0 || d.BytesRatio != 0 || d.EventsRatio != 0 {
		t.Errorf("zero-valued metrics must report ratio 0: %+v", d)
	}
	if math.IsInf(d.AllocsRatio, 0) || math.IsNaN(d.AllocsRatio) {
		t.Errorf("allocs ratio not finite: %v", d.AllocsRatio)
	}
	if strings.Contains(rep.Summary, "allocs") || strings.Contains(rep.Summary, "events/sec") {
		t.Errorf("summary mentions suppressed ratios: %q", rep.Summary)
	}
}

func TestRound3(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{1.23456, 1.235},
		{2.0, 2.0},
		{0.0004, 0.0},
		{0.9995, 1.0},
	} {
		if got := round3(tc.in); got != tc.want {
			t.Errorf("round3(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
