//go:build ignore

// abstat reads the result files of scripts/ab.sh's alternated benchmark
// pairs, checks that both sides computed the same thing, and summarises
// every end-to-end metric BENCHMARK.json declares, per workload: each
// side's median over the pairs, the parent's quartiles, how many pairs
// the change won, whether the change stayed inside the metric's bound,
// and whether the difference is resolved. It writes the summary in the
// end_to_end schema of the BENCH_<n>.json records.
//
//	go run scripts/abstat.go -k 10 -parent SHA -change SHA -o BENCH_n.json DIR
//
// DIR holds parent-<s>.json and change-<s>.json for s = 1..k, each the
// -json output of `bash benchmark/run.sh -bin <ricasim> -seed s`.
// A difference is resolved when the change is on the same side of the
// parent in at least nine pairs of ten and its median is further from
// the parent's than the parent's interquartile range. The exit status is
// 1 when any pair disagrees on events, result_sha256 or ops_failed, or
// a run failed an operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// run is one workload's result object, as benchmark/run.sh -json writes it.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Failed   int    `json:"ops_failed"`
	SHA      string `json:"result_sha256"`
	Events   uint64 `json:"events"`
	Metrics  map[string]struct {
		Median float64 `json:"median"`
	} `json:"metrics"`
}

// declared is BENCHMARK.json's end-to-end metric list.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	k := flag.Int("k", 10, "pairs run")
	parent := flag.String("parent", "", "the parent's revision, recorded in the output")
	change := flag.String("change", "", "the change's revision, recorded in the output")
	spec := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration")
	out := flag.String("o", "", "write the summary JSON here")
	flag.Parse()
	if flag.NArg() != 1 || *k < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/abstat.go -k K -parent SHA -change SHA [-o FILE] DIR")
		os.Exit(2)
	}
	var decl declared
	if err := readJSON(*spec, &decl); err != nil {
		fail(err)
	}

	// runs[side][workload][pair]
	runs := map[string]map[string][]run{"parent": {}, "change": {}}
	var listed []map[string]any
	for s := 1; s <= *k; s++ {
		for _, side := range []string{"parent", "change"} {
			var rs []run
			if err := readJSON(filepath.Join(flag.Arg(0), fmt.Sprintf("%s-%d.json", side, s)), &rs); err != nil {
				fail(err)
			}
			for _, r := range rs {
				runs[side][r.Workload] = append(runs[side][r.Workload], r)
				entry := map[string]any{
					"pair": s, "side": side, "first": (s%2 == 1) == (side == "parent"),
					"workload": r.Workload, "seed": r.Seed, "events": r.Events,
					"result_sha256": r.SHA, "ops_failed": r.Failed,
				}
				for _, m := range decl.EndToEnd {
					entry[m.Name] = r.Metrics[m.Name].Median
				}
				listed = append(listed, entry)
			}
		}
	}

	status := 0
	summary := map[string]any{}
	for _, w := range decl.Workloads {
		p, c := runs["parent"][w.Name], runs["change"][w.Name]
		if len(p) != *k || len(c) != *k {
			fail(fmt.Errorf("%s: %d parent and %d change runs, want %d each", w.Name, len(p), len(c), *k))
		}
		shaEqual, eventsEqual := true, true
		failedP, failedC := 0, 0
		for i := range p {
			shaEqual = shaEqual && p[i].SHA == c[i].SHA
			eventsEqual = eventsEqual && p[i].Events == c[i].Events
			failedP += p[i].Failed
			failedC += c[i].Failed
		}
		if !shaEqual || !eventsEqual || failedP != failedC || failedP+failedC > 0 {
			fmt.Printf("MISMATCH %s: result_sha256 equal %v, events equal %v, ops_failed %d vs %d\n",
				w.Name, shaEqual, eventsEqual, failedP, failedC)
			status = 1
		}
		ws := map[string]any{
			"result_sha256_equal_all_pairs": shaEqual,
			"events_equal_all_pairs":        eventsEqual,
			"ops_failed_total":              map[string]int{"parent": failedP, "change": failedC},
		}
		for _, m := range decl.EndToEnd {
			pv, cv := make([]float64, *k), make([]float64, *k)
			wins, losses := 0, 0
			for i := range p {
				pv[i], cv[i] = p[i].Metrics[m.Name].Median, c[i].Metrics[m.Name].Median
				gain := pv[i] - cv[i] // > 0: the change is better
				if m.Better == "higher" {
					gain = -gain
				}
				if gain > 0 {
					wins++
				} else if gain < 0 {
					losses++
				}
			}
			q1, pm, q3 := quartiles(pv)
			_, cm, _ := quartiles(cv)
			ratio := cm / pm
			within := ratio <= 1+m.Bound
			if m.Better == "higher" {
				within = ratio >= 1-m.Bound
			}
			need := int(math.Ceil(0.9 * float64(*k)))
			resolved := (wins >= need || losses >= need) && math.Abs(cm-pm) > q3-q1
			word := "unresolved"
			if resolved {
				word = "resolved"
			}
			fmt.Printf("%-12s %-13s parent %12.4f [q1 %.4f, q3 %.4f]  change %12.4f  %.4fx  better in %2d of %d  %s%s\n",
				w.Name, m.Name, pm, q1, q3, cm, ratio, wins, *k, word, map[bool]string{true: "", false: "  OUT OF BOUND"}[within])
			ws[m.Name] = map[string]any{
				"parent": round(pv), "change": round(cv),
				"parent_median": r4(pm), "change_median": r4(cm), "ratio": r4(ratio),
				"change_better_pairs": fmt.Sprintf("%d of %d", wins, *k),
				"parent_q1":           r4(q1), "parent_q3": r4(q3), "parent_iqr": r4(q3 - q1),
				"within_bound": within, "resolved": resolved,
			}
		}
		summary[w.Name] = ws
	}
	if *out != "" {
		doc := map[string]any{
			"parent": *parent, "change": *change, "pairs": *k,
			"method":     fmt.Sprintf("bash benchmark/run.sh -bin <ricasim> -seed s -json F for s = 1..%d, alternated pairs (odd seeds parent first), both binaries built from clean trees with the default profile", *k),
			"end_to_end": summary,
			"runs":       listed,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		fmt.Println("wrote", *out)
	}
	os.Exit(status)
}

// quartiles cuts the samples as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), as the benchmark harness does.
func quartiles(samples []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := min(max(i*m/n, 1), len(v)-1)
		delta := float64(i*m - j*n)
		return (v[j-1]*(n-delta) + v[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func r4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

func round(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = r4(x)
	}
	return out
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "abstat:", err)
	os.Exit(2)
}
