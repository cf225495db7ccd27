package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// sizes are the simulated horizons and repeat counts of a run. The
// program under test sees them only as flag values and job fields.
type sizes struct {
	fig, metro, grid, ckpt time.Duration // horizons of the five workloads (ckpt serves both ckpt-*)
	every, resumeAt        time.Duration // snapshot cadence of ckpt-run; capture instant of ckpt-resume
	probeGrid, probeCkpt   time.Duration // horizons of the traced pass's serve and checkpoint probes
	probeResumeAt          time.Duration
	setups, minOps         int // set-ups per run (setup_s is their median); fewest timed operations
}

var (
	fullSizes = sizes{
		fig: 20 * time.Second, metro: 10 * time.Second, grid: 20 * time.Second, ckpt: 500 * time.Second,
		every: 10 * time.Second, resumeAt: 300 * time.Second,
		probeGrid: 5 * time.Second, probeCkpt: 100 * time.Second, probeResumeAt: 60 * time.Second,
		setups: 3, minOps: 3,
	}
	quickSizes = sizes{
		fig: 2 * time.Second, metro: 2 * time.Second, grid: 2 * time.Second, ckpt: 2 * time.Second,
		every: 500 * time.Millisecond, resumeAt: 1200 * time.Millisecond,
		probeGrid: 2 * time.Second, probeCkpt: 2 * time.Second, probeResumeAt: 1200 * time.Millisecond,
		setups: 1, minOps: 1,
	}
)

// sample is one operation as the harness saw it from outside.
type sample struct {
	wall, cpu time.Duration
	rssKB     int64
	events    uint64 // simulated events the operation dispatched
	sha       string // SHA-256 of the operation's result bytes
}

// runner is one workload set up in a directory of its own.
type runner interface {
	// prepare writes the inputs, starts what must be running and makes
	// the reference outputs: all of set-up but the warm-up operation.
	prepare(ctx context.Context) error
	// op runs one operation and checks what only this workload can
	// check; the harness compares its hash and event count with the
	// warm-up's.
	op(ctx context.Context) (sample, error)
	// profileArgs are the ricasim arguments of one process that does an
	// operation's simulation work, for the traced pass to run under
	// -cpuprofile.
	profileArgs() []string
	// export returns a batch export covering exactly the cells of one
	// operation, for the traced pass's counter rows.
	export(ctx context.Context) ([]byte, error)
	// close stops what prepare started. A workload whose operations run
	// inside a long-lived process reports that process's cumulative CPU
	// and peak RSS here; the others return zeros.
	close() (cpu time.Duration, rssKB int64)
}

// workload names a runner; BENCHMARK.json and README.md say why each is
// here.
type workload struct {
	name string
	new  func(h *harness, dir string) runner
}

var workloads = []workload{
	{"fig2a", func(h *harness, dir string) runner { return &fig2a{cli{h, dir}} }},
	{"metro-500", func(h *harness, dir string) runner { return &metro{cli{h, dir}} }},
	{"grid-serve", func(h *harness, dir string) runner { return &gridServe{h: h, dir: dir} }},
	{"ckpt-run", func(h *harness, dir string) runner { return &ckpt{cli: cli{h, dir}} }},
	{"ckpt-resume", func(h *harness, dir string) runner { return &ckpt{cli: cli{h, dir}, resume: true} }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (c child) sample(result []byte, events uint64) sample {
	return sample{wall: c.wall, cpu: c.cpu, rssKB: c.rssKB, events: events, sha: sha(result)}
}

// export is the part of a batch JSON export the harness reads.
type export struct {
	Cells []struct {
		Events uint64             `json:"events"`
		Error  string             `json:"error"`
		Obs    map[string]float64 `json:"obs"`
	} `json:"cells"`
}

// readExport sums the export's per-cell event counts and obs counters.
// A poisoned cell makes the whole export an error.
func readExport(raw []byte) (events uint64, obs map[string]float64, err error) {
	var e export
	if err := json.Unmarshal(raw, &e); err != nil {
		return 0, nil, fmt.Errorf("export: %w", err)
	}
	if len(e.Cells) == 0 {
		return 0, nil, errors.New("export: no cells")
	}
	obs = make(map[string]float64)
	for i, c := range e.Cells {
		if c.Error != "" {
			return 0, nil, fmt.Errorf("export: cell %d is poisoned: %s", i, c.Error)
		}
		events += c.Events
		for k, v := range c.Obs {
			obs[k] += v
		}
	}
	return events, obs, nil
}

var (
	kernelLineRE = regexp.MustCompile(`(?m)^kernel: (\d+) events in `)
	eventsEqRE   = regexp.MustCompile(`\bevents=(\d+)\b`)
)

func matchCount(re *regexp.Regexp, text []byte, what string) (uint64, error) {
	m := re.FindSubmatch(text)
	if m == nil {
		return 0, fmt.Errorf("no %s in the output: %s", what, tail(text, 200))
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

func seedArg(h *harness) string { return strconv.FormatInt(h.seed, 10) }

// cli is the base of the workloads whose operation is one ricasim
// process: nothing to start, nothing to stop, and the child's own rusage
// per operation.
type cli struct {
	h   *harness
	dir string
}

func (cli) prepare(context.Context) error { return nil }

func (cli) close() (time.Duration, int64) { return 0, 0 }

// fig2a is `ricasim -figure 2a` at three speeds, one trial.
type fig2a struct{ cli }

func (w *fig2a) profileArgs() []string {
	return []string{"-figure", "2a", "-trials", "1", "-duration", w.h.size.fig.String(),
		"-speeds", "0,36,72", "-parallelism", "1", "-seed", seedArg(w.h), "-events-per-sec"}
}

func (w *fig2a) op(ctx context.Context) (sample, error) {
	c, err := runChild(ctx, w.h.bin, w.profileArgs()...)
	if err != nil {
		return sample{}, err
	}
	events, err := matchCount(kernelLineRE, c.stderr, "-events-per-sec line")
	if err != nil {
		return sample{}, err
	}
	return c.sample(c.stdout, events), nil
}

// export runs the figure's fifteen cells through the batch CLI: the
// paper's field at each speed as a generated spec. The cells are the
// same worlds, so the event total equals the figure's.
func (w *fig2a) export(ctx context.Context) ([]byte, error) {
	var specs []string
	for _, kmh := range []int{0, 36, 72} {
		path := filepath.Join(w.dir, fmt.Sprintf("field-%d.json", kmh))
		spec := fmt.Sprintf(`{"name":"field-%d","topology":{"kind":"waypoint","n":50,"width":1000,"height":1000,`+
			`"mean_speed_kmh":%d,"pause":"3s"},"traffic":{"kind":"poisson","flows":10,"rate":10}}`, kmh, kmh)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			return nil, err
		}
		specs = append(specs, path)
	}
	out := filepath.Join(w.dir, "cells.json")
	if _, err := runChild(ctx, w.h.bin, "-scenario", strings.Join(specs, ","), "-trials", "1",
		"-duration", w.h.size.fig.String(), "-parallelism", "1", "-seed", seedArg(w.h), "-out", out); err != nil {
		return nil, err
	}
	return os.ReadFile(out)
}

// metro is one metro-500 cell through the batch CLI with a JSON export.
type metro struct{ cli }

func (w *metro) out() string { return filepath.Join(w.dir, "metro.json") }

func (w *metro) profileArgs() []string {
	return []string{"-scenario", "metro-500", "-protocols", "RICA", "-trials", "1",
		"-duration", w.h.size.metro.String(), "-parallelism", "1", "-seed", seedArg(w.h),
		"-format", "json", "-out", w.out()}
}

func (w *metro) op(ctx context.Context) (sample, error) {
	c, err := runChild(ctx, w.h.bin, w.profileArgs()...)
	if err != nil {
		return sample{}, err
	}
	raw, err := os.ReadFile(w.out())
	if err != nil {
		return sample{}, err
	}
	events, _, err := readExport(raw)
	if err != nil {
		return sample{}, err
	}
	return c.sample(raw, events), nil
}

func (w *metro) export(context.Context) ([]byte, error) { return os.ReadFile(w.out()) }

// ckpt is the paper's cell under the checkpoint layer: run to the
// horizon writing a snapshot at every cadence step, or (resume) continue
// from a snapshot that set-up took at size.resumeAt.
type ckpt struct {
	cli
	resume bool
	ref    []byte // resume: stdout of the uninterrupted checkpointing run
}

func (w *ckpt) cell() []string {
	return []string{"-scenario", "paper-baseline", "-protocols", "RICA", "-trials", "1",
		"-duration", w.h.size.ckpt.String(), "-seed", seedArg(w.h)}
}

func (w *ckpt) snapshot() string { return filepath.Join(w.dir, "snapshot") }

func (w *ckpt) prepare(ctx context.Context) error {
	if !w.resume {
		return nil
	}
	// The horizon is not a multiple of the cadence, so the run leaves
	// exactly one snapshot behind, taken at resumeAt.
	c, err := runChild(ctx, w.h.bin, append(w.cell(),
		"-checkpoint", w.snapshot(), "-checkpoint-every", w.h.size.resumeAt.String())...)
	w.ref = c.stdout
	return err
}

func (w *ckpt) profileArgs() []string {
	if w.resume {
		return []string{"-resume", w.snapshot()}
	}
	return append(w.cell(), "-checkpoint", w.snapshot(), "-checkpoint-every", w.h.size.every.String())
}

func (w *ckpt) op(ctx context.Context) (sample, error) {
	c, err := runChild(ctx, w.h.bin, w.profileArgs()...)
	if err != nil {
		return sample{}, err
	}
	if w.resume && !bytes.Equal(c.stdout, w.ref) {
		return sample{}, fmt.Errorf("resumed run printed %q, the uninterrupted run %q", tail(c.stdout, 120), tail(w.ref, 120))
	}
	events, err := matchCount(eventsEqRE, c.stdout, "events= field")
	if err != nil {
		return sample{}, err
	}
	return c.sample(c.stdout, events), nil
}

// export runs the same cell plainly through the batch CLI.
func (w *ckpt) export(ctx context.Context) ([]byte, error) {
	out := filepath.Join(w.dir, "plain.json")
	if _, err := runChild(ctx, w.h.bin, append(w.cell(), "-parallelism", "1", "-out", out)...); err != nil {
		return nil, err
	}
	return os.ReadFile(out)
}

// gridScenarios is the mixed grid of grid-serve: a chain, a lattice, a
// dense waypoint field, a churn storm and a jammed lattice, times five
// protocols and two seeds.
var gridScenarios = []string{"chain-10", "grid-8x8", "dense-urban", "churn-storm", "jammer-grid"}

const gridTrials = 2

// gridArgs is the batch CLI invocation of the grid-serve grid, which the
// daemon's worker runs too; only -manifest and the supervisor's stats
// flags differ, and none of them changes the export.
func gridArgs(h *harness, horizon time.Duration, out string) []string {
	return []string{"-scenario", strings.Join(gridScenarios, ","), "-trials", strconv.Itoa(gridTrials),
		"-seed", seedArg(h), "-duration", horizon.String(), "-format", "json", "-out", out}
}

func gridJob(h *harness, horizon time.Duration) []byte {
	body, err := json.Marshal(map[string]any{
		"scenarios": gridScenarios, "trials": gridTrials, "seed": h.seed, "duration_s": horizon.Seconds(),
	})
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return body
}

// gridServe submits the grid to a running daemon, one job at a time.
type gridServe struct {
	h      *harness
	dir    string
	d      *daemon
	ref    []byte // the direct CLI export of the same grid
	direct child  // that direct run, for the traced pass
}

func (w *gridServe) prepare(ctx context.Context) error {
	out := filepath.Join(w.dir, "direct.json")
	c, err := runChild(ctx, w.h.bin, gridArgs(w.h, w.h.size.grid, out)...)
	if err != nil {
		return err
	}
	w.direct = c
	if w.ref, err = os.ReadFile(out); err != nil {
		return err
	}
	w.d, err = startDaemon(ctx, w.h.bin, w.dir)
	return err
}

func (w *gridServe) op(ctx context.Context) (sample, error) {
	result, _, t, err := w.job(ctx, false)
	if err != nil {
		return sample{}, err
	}
	events, _, err := readExport(result)
	if err != nil {
		return sample{}, err
	}
	return sample{wall: t.fetched.Sub(t.submit), events: events, sha: sha(result)}, nil
}

// job runs one grid job to its result and applies the checks a daemon
// user relies on: the job ended done, without a restart, and served the
// bytes the CLI writes for the same grid.
func (w *gridServe) job(ctx context.Context, follow bool) ([]byte, jobStatus, jobTimes, error) {
	result, st, t, err := w.d.runJob(ctx, gridJob(w.h, w.h.size.grid), follow)
	switch {
	case err != nil:
	case st.State != "done":
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Reason)
	case st.Restarts > 0:
		err = fmt.Errorf("job %s needed %d restarts", st.ID, st.Restarts)
	case !bytes.Equal(result, w.ref):
		err = fmt.Errorf("job %s served %d bytes that differ from the CLI's %d-byte export of the same grid", st.ID, len(result), len(w.ref))
	}
	return result, st, t, err
}

func (w *gridServe) profileArgs() []string {
	return append(gridArgs(w.h, w.h.size.grid, filepath.Join(w.dir, "profiled.json")),
		"-manifest", filepath.Join(w.dir, "profiled.manifest"))
}

func (w *gridServe) export(context.Context) ([]byte, error) { return w.ref, nil }

func (w *gridServe) close() (time.Duration, int64) {
	if w.d == nil {
		return 0, 0
	}
	return w.d.stop()
}
