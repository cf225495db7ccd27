package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"rica/benchmark/span"
)

// The traced pass: per-layer numbers for one workload, from three
// outside sources — a CPU profile of the workload's process folded by
// package, the obs counters of its cells' batch export, and the fixed
// ledger (the layers program plus checkpoint, serve and start-up probes
// through the CLI), which is measured the same way whatever the workload
// so that its rows compare across runs. End-to-end numbers are never
// taken here.

// cpuLayers are the rows of the cpu_share family.
var cpuLayers = []string{"sim", "geom", "channel", "mobility", "mac", "network", "routing", "traffic",
	"packet", "telemetry", "world", "checkpoint", "batch", "runtime", "math", "syscall", "other"}

// layerOf names the layer a profiled function belongs to, by package.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i] // type arguments and receivers may hold other packages' paths
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if name, ok := strings.CutPrefix(pkg, "rica/internal/"); ok {
		name, _, _ = strings.Cut(name, "/")
		switch name {
		case "obs", "metrics", "timeseries", "trace":
			return "telemetry"
		case "durable":
			return "checkpoint"
		case "sim", "geom", "channel", "mobility", "mac", "network", "routing", "traffic",
			"packet", "world", "checkpoint", "batch":
			return name
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "internal/runtime/syscall", pkg == "internal/poll", pkg == "os":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/abi", pkg == "internal/bytealg", pkg == "internal/cpu":
		return "runtime"
	case pkg == "math", strings.HasPrefix(pkg, "math/"):
		return "math"
	}
	return "other"
}

// cpuShares folds `go tool pprof -top` of prof by layer and returns each
// layer's share of the flat samples.
func (h *harness) cpuShares(ctx context.Context, prof string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", h.bin, prof)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	_, rows, ok := strings.Cut(string(out), "flat%")
	if !ok {
		return nil, fmt.Errorf("go tool pprof: no table in %q", tail(out, 200))
	}
	flat := make(map[string]time.Duration)
	var total time.Duration
	for _, line := range strings.Split(rows, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %w", line, err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += d
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: %s holds no samples", prof)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = float64(flat[l]) / float64(total)
	}
	return shares, nil
}

// counterRows turns the summed obs counters of an export into the
// count-based rows. They repeat exactly for one seed and one program, so
// they compare two commits as counts, never as speed-ups.
func counterRows(events uint64, obs map[string]float64, m map[string]metric) {
	e := float64(events)
	per := func(name, counter string) { m[name] = single("1/event", obs[counter]/e) }
	m["sim.events"] = single("count", e)
	per("sim.scheduled_per_event", "events_scheduled")
	per("channel.dist_miss_per_event", "chan_dist_misses")
	per("channel.class_miss_per_event", "chan_class_misses")
	per("channel.annulus_checks_per_event", "chan_annulus_checks")
	per("mac.backoffs_per_event", "mac_backoffs")
	per("mac.collisions_per_event", "mac_collisions")
	per("routing.flood_suppressed_per_event", "route_flood_suppressed")
	hit, miss := obs["chan_trans_hits"], obs["chan_trans_misses"]
	m["channel.trans_hit_ratio"] = single("ratio", hit/max(hit+miss, 1))
	m["geom.grid_rebuilds"] = single("count", obs["chan_grid_rebuilds"])
	m["routing.spt_recomputes"] = single("count", obs["route_spt_recomputes"])
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced is the per-layer pass for one workload.
func (h *harness) traced(ctx context.Context, w workload) (result, error) {
	tr := &span.Tracer{Cell: w.name}
	root := tr.Start(0, "traced "+w.name)
	defer func() { h.spans = append(h.spans, tr.Spans...) }()
	m := make(map[string]metric)

	dir, rm, err := h.runDir("traced")
	if err != nil {
		return result{}, err
	}
	defer rm()

	id := tr.Start(root, "set-up")
	r, ref, rmRun, err := h.setUp(ctx, w)
	tr.End(id)
	if err != nil {
		return result{}, err
	}
	defer func() { r.close(); rmRun() }()

	// The workload's own process under the profiler.
	prof := filepath.Join(dir, "cpu.prof")
	id = tr.Start(root, "profiled operation")
	c, err := runChild(ctx, h.bin, append(r.profileArgs(), "-cpuprofile", prof)...)
	tr.End(id)
	if err != nil {
		return result{}, err
	}
	plain := ref.wall
	if g, ok := r.(*gridServe); ok {
		plain = g.direct.wall // the profiled process is the grid run directly, not the job
	}
	m["trace.overhead_ratio"] = single("ratio", c.wall.Seconds()/plain.Seconds())
	id = tr.Start(root, "pprof -top")
	shares, err := h.cpuShares(ctx, prof)
	tr.End(id)
	if err != nil {
		return result{}, err
	}
	for l, s := range shares {
		m["cpu_share."+l] = single("ratio", s)
	}

	// The workload's cells through the batch export, for the counters.
	id = tr.Start(root, "counter export")
	raw, err := r.export(ctx)
	tr.End(id)
	if err != nil {
		return result{}, err
	}
	events, obs, err := readExport(raw)
	if err != nil {
		return result{}, err
	}
	if events != ref.events {
		return result{}, fmt.Errorf("the counter export covers %d events, one operation %d: they are not the same cells", events, ref.events)
	}
	counterRows(events, obs, m)

	if err := h.ledger(ctx, tr, root, dir, m); err != nil {
		return result{}, err
	}
	tr.End(root)

	fmt.Printf("\nself time of the traced pass of %s (span minus its children)\n", w.name)
	for i, s := range span.SelfTimes(tr.Spans) {
		if i == 12 {
			break
		}
		fmt.Printf("  %-34s n=%-3d total=%-12v self=%v\n", s.Name, s.Count, s.Total.Round(time.Microsecond), s.Self.Round(time.Microsecond))
	}
	return result{Workload: w.name, Seed: h.seed, Traced: true, Attempted: 1, SHA: ref.sha, Events: ref.events,
		BuildS: h.buildS, Metrics: m}, nil
}

// ledger measures the rows that do not depend on the workload.
func (h *harness) ledger(ctx context.Context, tr *span.Tracer, root int, dir string, m map[string]metric) error {
	// Process start-up: the cost every CLI operation pays before simulating.
	id := tr.Start(root, "cli.startup")
	var startup []float64
	for i := 0; i < 5; i++ {
		c, err := runChild(ctx, h.bin, "-list-scenarios")
		if err != nil {
			return err
		}
		startup = append(startup, msOf(c.wall))
	}
	tr.End(id)
	m["cli.startup_ms"] = summarize("ms", startup)

	if err := h.runLayers(ctx, tr, root, dir, m); err != nil {
		// A refactor of the program may break the one part of the benchmark
		// that imports it; the rest of the pass stands without its rows.
		fmt.Printf("layers: unavailable (%v)\n", err)
	}

	probe := *h
	probe.size.ckpt, probe.size.resumeAt, probe.size.grid = h.size.probeCkpt, h.size.probeResumeAt, h.size.probeGrid
	if err := probe.checkpointProbe(ctx, tr, root, dir, m); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	if err := probe.serveProbe(ctx, tr, root, dir, m); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	return nil
}

// runLayers runs the in-process ledger program and takes over its
// metrics and spans.
func (h *harness) runLayers(ctx context.Context, tr *span.Tracer, root int, dir string, m map[string]metric) error {
	if h.layers == "" {
		return errors.New("it did not build")
	}
	args := []string{"-seed", seedArg(h), "-dir", dir}
	if h.quick {
		args = append(args, "-quick")
	}
	id := tr.Start(root, "layers subprocess")
	c, err := runChild(ctx, h.layers, args...)
	tr.End(id)
	if err != nil {
		return err
	}
	var out struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
		Spans []span.Span `json:"spans"`
	}
	if err := json.Unmarshal(c.stdout, &out); err != nil {
		return err
	}
	for name, v := range out.Metrics {
		m[name] = single(v.Unit, v.Value)
	}
	tr.Adopt(id, out.Spans)
	return nil
}

// checkpointProbe runs the paper's cell plainly, checkpointing, and
// resumed, at the probe horizon.
func (h *harness) checkpointProbe(ctx context.Context, tr *span.Tracer, root int, dir string, m map[string]metric) error {
	id := tr.Start(root, "checkpoint probe")
	defer tr.End(id)
	writeDir, readDir := filepath.Join(dir, "ckpt-write"), filepath.Join(dir, "ckpt-read")
	for _, d := range []string{writeDir, readDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	write, read := &ckpt{cli: cli{h, writeDir}}, &ckpt{cli: cli{h, readDir}, resume: true}

	sid := tr.Start(id, "plain run")
	plain, err := runChild(ctx, h.bin, append(write.cell(), "-parallelism", "1")...)
	tr.End(sid)
	if err != nil {
		return err
	}
	sid = tr.Start(id, "checkpointing run")
	ran, err := write.op(ctx)
	tr.End(sid)
	if err != nil {
		return err
	}
	sid = tr.Start(id, "snapshot for resume")
	err = read.prepare(ctx)
	tr.End(sid)
	if err != nil {
		return err
	}
	sid = tr.Start(id, "resumed run")
	resumed, err := read.op(ctx)
	tr.End(sid)
	if err != nil {
		return err
	}
	last, err := os.Stat(write.snapshot())
	if err != nil {
		return err
	}
	// One snapshot per multiple of the cadence strictly inside the horizon.
	m["checkpoint.snapshots"] = single("count", float64((h.size.ckpt-1)/h.size.every))
	m["checkpoint.snapshot_mb"] = single("MB", float64(last.Size())/1e6)
	m["checkpoint.run_overhead_ratio"] = single("ratio", ran.wall.Seconds()/plain.wall.Seconds())
	m["checkpoint.resume_vs_fresh_ratio"] = single("ratio", resumed.wall.Seconds()/plain.wall.Seconds())
	return nil
}

// serveProbe submits the grid at the probe horizon to a daemon of its
// own and times the job's stages from the client and the event stream.
func (h *harness) serveProbe(ctx context.Context, tr *span.Tracer, root int, dir string, m map[string]metric) error {
	serveDir := filepath.Join(dir, "serve")
	if err := os.Mkdir(serveDir, 0o755); err != nil {
		return err
	}
	id := tr.Start(root, "serve probe")
	defer tr.End(id)
	g := &gridServe{h: h, dir: serveDir}
	defer g.close()
	sid := tr.Start(id, "direct run and daemon start")
	err := g.prepare(ctx)
	tr.End(sid)
	if err != nil {
		return err
	}
	_, st, t, err := g.job(ctx, true)
	if err != nil {
		return err
	}
	if t.started.IsZero() || t.firstCell.IsZero() {
		return fmt.Errorf("job %s: the event stream ended without a started and a progress event", st.ID)
	}
	stage := func(parent int, name string, from, to time.Time) int {
		m[name] = single("ms", msOf(to.Sub(from)))
		return tr.Add(parent, name, from, to)
	}
	job := tr.Add(id, "job", t.submit, t.fetched)
	stage(job, "serve.submit_ms", t.submit, t.accepted)
	stage(job, "serve.queue_wait_ms", t.accepted, t.started)
	run := stage(job, "serve.run_ms", t.started, t.terminal)
	stage(run, "serve.spawn_to_first_cell_ms", t.started, t.firstCell)
	stage(job, "serve.result_fetch_ms", t.terminal, t.fetched)
	m["serve.overhead_ms"] = single("ms", msOf(t.fetched.Sub(t.submit)-g.direct.wall))
	m["serve.restarts"] = single("count", float64(st.Restarts))
	return nil
}

// writeSpans writes every span of the invocation to out/trace.json.
func (h *harness) writeSpans() error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(h.spans)
	if err != nil {
		return err
	}
	path := filepath.Join("out", "trace.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d spans to benchmark/%s\n", len(h.spans), path)
	return nil
}
