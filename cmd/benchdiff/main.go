// Command benchdiff compares two bench.sh JSON records and emits the
// delta summary the BENCH_<n>.json trajectory files embed: per-benchmark
// ratios for time, allocations, bytes, and events/sec, plus a one-line
// human summary. It replaces the hand-computed notes that accompanied
// earlier BENCH files.
//
// Usage:
//
//	benchdiff BASELINE.json POST.json
//
// The inputs are bench.sh outputs ({"label", "go", "benchmarks": [...]}).
// The delta JSON goes to stdout; the summary line to stderr.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchRecord mirrors bench.sh's fixed schema.
type benchRecord struct {
	Label      string      `json:"label"`
	Go         string      `json:"go"`
	Benchmarks []benchLine `json:"benchmarks"`
}

type benchLine struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// delta is one benchmark's before/after comparison. Ratios are oriented
// so that bigger is better: time/bytes/allocs report baseline/post
// (speedup), events/sec reports post/baseline.
type delta struct {
	Name         string  `json:"name"`
	SpeedupNs    float64 `json:"speedup_ns,omitempty"`
	AllocsRatio  float64 `json:"allocs_ratio,omitempty"`
	BytesRatio   float64 `json:"bytes_ratio,omitempty"`
	EventsRatio  float64 `json:"events_per_sec_ratio,omitempty"`
	BaselineOnly bool    `json:"baseline_only,omitempty"`
	PostOnly     bool    `json:"post_only,omitempty"`
}

type report struct {
	Baseline string  `json:"baseline"`
	Post     string  `json:"post"`
	Deltas   []delta `json:"deltas"`
	Summary  string  `json:"summary"`
}

func load(path string) (benchRecord, error) {
	var r benchRecord
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func ratio(base, post float64) float64 {
	if base <= 0 || post <= 0 {
		return 0
	}
	return base / post
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BASELINE.json POST.json")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	post, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	rep := buildReport(base, post)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, rep.Summary)
}

// buildReport computes the full delta report for two bench records.
func buildReport(base, post benchRecord) report {
	postBy := make(map[string]benchLine, len(post.Benchmarks))
	for _, b := range post.Benchmarks {
		postBy[b.Name] = b
	}

	rep := report{Baseline: base.Label, Post: post.Label}
	summary := ""
	seen := make(map[string]bool)
	for _, b := range base.Benchmarks {
		seen[b.Name] = true
		p, ok := postBy[b.Name]
		if !ok {
			rep.Deltas = append(rep.Deltas, delta{Name: b.Name, BaselineOnly: true})
			continue
		}
		d := delta{
			Name:        b.Name,
			SpeedupNs:   round3(ratio(b.NsPerOp, p.NsPerOp)),
			AllocsRatio: round3(ratio(b.AllocsPerOp, p.AllocsPerOp)),
			BytesRatio:  round3(ratio(b.BytesPerOp, p.BytesPerOp)),
		}
		if b.EventsPerSec > 0 && p.EventsPerSec > 0 {
			d.EventsRatio = round3(p.EventsPerSec / b.EventsPerSec)
		}
		rep.Deltas = append(rep.Deltas, d)
		if summary != "" {
			summary += "; "
		}
		summary += fmt.Sprintf("%s: %.2fx time", b.Name, d.SpeedupNs)
		if d.EventsRatio > 0 {
			summary += fmt.Sprintf(", %.2fx events/sec", d.EventsRatio)
		}
		if d.AllocsRatio > 0 {
			summary += fmt.Sprintf(", %.2fx allocs", d.AllocsRatio)
		}
	}
	for _, p := range post.Benchmarks {
		if !seen[p.Name] {
			rep.Deltas = append(rep.Deltas, delta{Name: p.Name, PostOnly: true})
		}
	}
	rep.Summary = summary
	return rep
}

func round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}
