package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuick runs both passes at -quick size through run.sh, the way the
// driver does, and holds the output to BENCHMARK.json: every workload
// there ran without a failed operation, and every metric named there was
// printed for it, finite, under a well-formed name.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ricasim and runs ten quick workloads")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
		out := filepath.Join(t.TempDir(), "results.json")
		cmd := exec.Command("bash", "run.sh", "-quick", "-trace", []string{"0", "1"}[trace], "-json", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run.sh -quick -trace %d: %v\n%s", trace, err, msg)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var results []result
		if err := json.Unmarshal(data, &results); err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]result)
		for _, r := range results {
			byName[r.Workload] = r
		}
		for _, w := range bf.Workloads {
			r, ok := byName[w.Name]
			if !ok {
				t.Errorf("trace %d: workload %s in BENCHMARK.json did not run", trace, w.Name)
				continue
			}
			if r.Failed != 0 || r.Attempted < 1 || r.SHA == "" || r.Events == 0 {
				t.Errorf("trace %d: %s: attempted %d, failed %d, sha %q, events %d", trace, w.Name, r.Attempted, r.Failed, r.SHA, r.Events)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is malformed", m.Name)
				case !ok:
					t.Errorf("trace %d: %s: metric %s was not printed", trace, w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("trace %d: %s: %s has unit %q, BENCHMARK.json says %q", trace, w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Median) || math.IsInf(got.Median, 0):
					t.Errorf("trace %d: %s: %s = %v", trace, w.Name, m.Name, got.Median)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace %d: %s printed %d metrics, BENCHMARK.json names %d", trace, w.Name, len(r.Metrics), len(want))
			}
		}
	}
}
