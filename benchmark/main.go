// Command benchmark is the repository's yardstick (see README.md in this
// directory and BENCHMARK.json at the root). It builds cmd/ricasim once
// and drives it from outside — CLI flags and the daemon's HTTP API — as
// a closed loop: one client, one operation in flight. The end-to-end
// path imports nothing from the program under test.
//
//	bash benchmark/run.sh --workload metro-500 --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh -sets 2              # every workload, twice, with the agreement table
//	bash benchmark/run.sh -trace 1             # the per-layer pass for every workload
//	bash benchmark/run.sh -bin /path/ricasim   # measure a prebuilt binary (A/B two commits)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"rica/benchmark/span"
)

// harness is one invocation's fixed settings.
type harness struct {
	bin     string // the ricasim under test
	layers  string // the in-process ledger program; empty when it did not build
	work    string // benchmark/.work: builds and per-run directories
	seed    int64
	seconds time.Duration
	size    sizes
	quick   bool
	buildS  float64
	spans   []span.Span // the traced pass's spans, written out once at exit
}

// result is everything one run of one workload printed.
type result struct {
	Workload  string            `json:"workload"`
	Set       int               `json:"set"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	SHA       string            `json:"result_sha256"`
	Events    uint64            `json:"events"`
	BuildS    float64           `json:"build_s"`
	Harness   float64           `json:"harness_cpu_share"` // harness CPU around the timed operations ÷ their CPU
	HostSpeed metric            `json:"host_speed"`        // the factors that took the times to reference speed
	RawWall   metric            `json:"raw_wall_s"`        // wall_s before that
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var names string
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all five)")
	flag.StringVar(&names, "workloads", "", "the same as -workload")
	seed := flag.Int64("seed", 1, "workload seed: passed to ricasim -seed and the job's seed")
	seconds := flag.Float64("seconds", 8, "how long the timed part of a workload lasts")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end one")
	bin := flag.String("bin", "", "a prebuilt ricasim to measure instead of building this checkout's")
	sets := flag.Int("sets", 1, "run the selected workloads this many times and print how the sets agree")
	quick := flag.Bool("quick", false, "one operation per workload at 2 s horizons: a smoke test, not a measurement")
	jsonOut := flag.String("json", "", "also write every result to this file as JSON")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *sets < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := &harness{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), size: fullSizes, quick: *quick}
	if *quick {
		h.size, h.seconds = quickSizes, 0 // minOps alone ends the timed part
	}
	if err := h.build(ctx, *bin, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("benchmark: ricasim=%s seed=%d build_s=%.3f\n", h.bin, h.seed, h.buildS)

	var (
		results []result
		status  int
	)
	for set := 1; set <= *sets && ctx.Err() == nil; set++ {
		for _, w := range selected {
			var (
				r   result
				err error
			)
			if *trace == 1 {
				r, err = h.traced(ctx, w)
			} else {
				r, err = h.measure(ctx, w)
			}
			if ctx.Err() != nil {
				break
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			r.Set = set
			results = append(results, r)
			r.print()
			if r.Failed > 0 {
				status = 1
			}
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		return 130
	}
	if *trace == 1 {
		if err := h.writeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *sets > 1 {
		printAgreement(results, *sets)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line of standard output is the last run's result object.
	results[len(results)-1].printContract()
	return status
}

// build compiles ricasim (unless bin names a prebuilt one) and, for the
// traced pass, the layers program. The Go toolchain's own caches live
// under .work too: run.sh points them there.
func (h *harness) build(ctx context.Context, bin string, traced bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	h.work = filepath.Join(wd, ".work")
	if err := os.MkdirAll(filepath.Join(h.work, "run"), 0o755); err != nil {
		return err
	}
	start := time.Now()
	if bin != "" {
		if h.bin, err = filepath.Abs(bin); err != nil {
			return err
		}
		if _, err := os.Stat(h.bin); err != nil {
			return err
		}
	} else {
		h.bin = filepath.Join(h.work, "bin", "ricasim")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/ricasim")
		cmd.Dir = filepath.Dir(wd) // the root of the checkout
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/ricasim: %w: %s", err, tail(out, 600))
		}
	}
	if traced {
		layers := filepath.Join(h.work, "bin", "layers")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", layers, "./layers")
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Printf("layers: go build ./layers: %v: %s\n", err, tail(out, 300))
		} else {
			h.layers = layers
		}
	}
	h.buildS = time.Since(start).Seconds()
	return nil
}

// runDir makes an empty directory for one set-up of one workload and
// returns it with the function that removes it — after killing whatever
// process still names it, so no ricasim outlives the harness.
func (h *harness) runDir(name string) (string, func(), error) {
	dir, err := os.MkdirTemp(filepath.Join(h.work, "run"), name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		if n := killStrays(dir); n > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: killed %d stray process(es) under %s\n", n, dir)
		}
		_ = os.RemoveAll(dir) // scratch of our own making; a leftover is reported by git status, not fatal
	}, nil
}

// setUp is one complete set-up of w: a fresh directory, prepare, and the
// untimed warm-up operation whose result the timed operations must match.
// The caller owes the runner one close and then the directory its removal.
func (h *harness) setUp(ctx context.Context, w workload) (r runner, ref sample, rm func(), err error) {
	dir, rm, err := h.runDir(w.name)
	if err != nil {
		return nil, sample{}, nil, err
	}
	r = w.new(h, dir)
	if err = r.prepare(ctx); err == nil {
		ref, err = r.op(ctx)
	}
	if err != nil {
		r.close()
		rm()
		return nil, sample{}, nil, fmt.Errorf("set-up: %w", err)
	}
	return r, ref, rm, nil
}

// measure is the end-to-end pass for one workload: size.setups set-ups
// (the last one is kept), then operations one at a time until both
// h.seconds and size.minOps are spent.
func (h *harness) measure(ctx context.Context, w workload) (result, error) {
	var (
		r      runner
		ref    sample
		rm     func()
		setups []float64
	)
	loop := hostLoop() // the reading after one operation is the reading before the next
	for i := 0; i < h.size.setups; i++ {
		if r != nil {
			r.close()
			rm()
		}
		start := time.Now()
		var err error
		if r, ref, rm, err = h.setUp(ctx, w); err != nil {
			return result{}, err
		}
		took, before := time.Since(start), loop
		loop = hostLoop()
		setups = append(setups, took.Seconds()*hostSpeed(before, loop))
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
		rm()
	}()

	res := result{Workload: w.name, Seed: h.seed, SHA: ref.sha, Events: ref.events, BuildS: h.buildS}
	var (
		wall, cpu, rss, eps, rawWall, speeds []float64
		self, opsCPU                         time.Duration
	)
	start, failing := time.Now(), 0
	for ctx.Err() == nil && (res.Attempted < h.size.minOps || time.Since(start) < h.seconds) {
		before, own := loop, selfCPU()
		s, err := r.op(ctx)
		self += selfCPU() - own
		loop = hostLoop()
		speed := hostSpeed(before, loop)
		res.Attempted++
		if err == nil && (s.sha != ref.sha || s.events != ref.events) {
			err = fmt.Errorf("result %s… with %d events, the warm-up's was %s… with %d", s.sha[:12], s.events, ref.sha[:12], ref.events)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: operation %d failed: %v\n", w.name, res.Attempted, err)
			if failing++; failing == 3 {
				break // the program is broken, not noisy: stop spending the time box on it
			}
			continue
		}
		failing = 0
		speeds = append(speeds, speed)
		rawWall = append(rawWall, s.wall.Seconds())
		wall = append(wall, s.wall.Seconds()*speed)
		eps = append(eps, float64(s.events)/(s.wall.Seconds()*speed))
		if s.cpu > 0 {
			cpu = append(cpu, s.cpu.Seconds()*speed)
			rss = append(rss, float64(s.rssKB)/1024)
			opsCPU += s.cpu
		}
	}
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	closed = true
	totalCPU, rssKB := r.close()
	if totalCPU > 0 {
		// The long-lived process ran the warm-up and every timed operation.
		jobs := float64(res.Attempted + 1)
		_, speed, _ := quartiles(speeds)
		cpu, rss = []float64{totalCPU.Seconds() / jobs * speed}, []float64{float64(rssKB) / 1024}
		opsCPU = time.Duration(float64(totalCPU) * float64(res.Attempted) / jobs)
	}
	if len(wall) == 0 {
		return result{}, fmt.Errorf("all %d operations failed", res.Attempted)
	}
	res.HostSpeed, res.RawWall = summarize("ratio", speeds), summarize("s", rawWall)
	res.Harness = float64(self) / float64(opsCPU)
	res.Metrics = map[string]metric{
		"wall_s":       summarize("s", wall),
		"events_per_s": summarize("events/s", eps),
		"cpu_s":        summarize("s", cpu),
		"peak_rss_mb":  summarize("MB", rss),
		"setup_s":      summarize("s", setups),
	}
	return res, nil
}

func (r result) print() {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("\nworkload %s (%s) seed=%d ops_attempted=%d ops_failed=%d events=%d result_sha256=%s\n",
		r.Workload, pass, r.Seed, r.Attempted, r.Failed, r.Events, r.SHA)
	line := func(name string, m metric) {
		fmt.Printf("  %-36s %-9s n=%-3d median=%-14.6g q1=%-14.6g q3=%.6g\n", name, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
	if !r.Traced {
		fmt.Printf("  harness_cpu_share=%.4f (harness CPU around the timed operations / their CPU)\n", r.Harness)
		fmt.Println("  times below are at reference speed (raw x host_speed); as the clock read them:")
		line("host_speed", r.HostSpeed)
		line("raw_wall_s", r.RawWall)
		fmt.Println("  metrics:")
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, r.Metrics[name])
	}
}

// printContract prints the one-line result object the driver reads.
func (r result) printContract() {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN metric: summarize is only given real samples
	}
	fmt.Printf("%s\n", line)
}

// benchmarkFile is the part of BENCHMARK.json the agreement table needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printAgreement lists, per workload and end-to-end metric, the medians
// of the first and the last set and how much worse the last is as a
// share of the first, beside the bound BENCHMARK.json fixes. The code is
// the same in both sets, so a difference outside the bound means the box
// cannot resolve that bound: the pair is flagged unresolved.
func printAgreement(results []result, sets int) {
	var bf benchmarkFile
	if raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no agreement table:", err)
		return
	} else if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no agreement table: BENCHMARK.json:", err)
		return
	}
	find := func(name string, set int) (result, bool) {
		for _, r := range results {
			if r.Workload == name && r.Set == set {
				return r, true
			}
		}
		return result{}, false
	}
	fmt.Printf("\nagreement of set 1 and set %d (same code, same seed)\n", sets)
	fmt.Printf("| workload | metric | set 1 | set %d | worse by | bound | |\n|---|---|---|---|---|---|---|\n", sets)
	for _, w := range workloads {
		a, okA := find(w.name, 1)
		b, okB := find(w.name, sets)
		if !okA || !okB {
			continue
		}
		sameHash := "same result_sha256"
		if a.SHA != b.SHA {
			sameHash = "result_sha256 DIFFERS"
		}
		for _, m := range bf.EndToEnd {
			x, y := a.Metrics[m.Name].Median, b.Metrics[m.Name].Median
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > m.Bound {
				verdict = "unresolved"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% | %s |\n", w.name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
		fmt.Printf("| %s | | | | | | %s, ops_failed %d+%d |\n", w.name, sameHash, a.Failed, b.Failed)
	}
}
