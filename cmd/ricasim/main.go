// Command ricasim regenerates the tables behind every figure of the RICA
// paper's evaluation (ICDCS 2002, §III) and mass-executes declarative
// scenarios through the parallel batch engine.
//
// Usage:
//
//	ricasim -figure 2a                    # one figure at CI scale
//	ricasim -figure all -trials 25 -duration 500s   # full paper scale
//	ricasim -figure 3b -protocols RICA,AODV -speeds 0,36,72
//	ricasim -list-scenarios               # the built-in scenario catalog
//	ricasim -scenario dense-urban -protocols RICA,AODV -out results.json
//	ricasim -scenario chain-10,grid-8x8 -trials 5 -format csv
//	ricasim -scenario my-spec.json        # a hand-written JSON spec
//	ricasim -scenario partition-heal -timeline out.jsonl -interval 1s
//	ricasim -figure 2a -events-per-sec    # append a kernel-throughput summary line
//
// Figures: 2a/2b delay, 3a/3b delivery, 4a/4b overhead (a = 10 packets/s,
// b = 20 packets/s), 5a/5b route quality at 72 km/h, 6a/6b throughput
// time series (20 and 60 packets/s).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rica"
	"rica/internal/durable"
)

// Exit statuses: 0 success, 1 error, exitInterrupted when a signal (or
// a second one, forcing) cut the work short — so schedulers and CI can
// tell "failed" from "stopped early, resume me".
const (
	exitCodeInterrupted = 3
	exitCodeForced      = 130
)

// options is the command line, parsed once: main dispatches on it and
// every mode function takes it whole.
type options struct {
	figure      string
	trials      int
	duration    time.Duration
	seed        int64
	speeds      string
	protocols   string
	format      string
	parallelism int
	scenarios   string
	verify      bool
	list        bool
	out         string
	timeline    string
	interval    time.Duration
	cpuprofile  string
	memprofile  string
	eventsRate  bool
	stats       time.Duration
	statsAddr   string
	obsOut      string
	ckptPath    string
	ckptEvery   time.Duration
	resumePath  string
	manifest    string

	// hub aggregates the live counters of whatever the mode runs; nil
	// unless -stats, -statsaddr or -obs asked for them.
	hub *rica.ObsHub
}

func parseFlags() options {
	var o options
	o.define(flag.CommandLine)
	flag.Parse()
	return o
}

// define registers every ricasim flag on fs, bound to o's fields; the
// flags table in docs/OPERATIONS.md is held to what it registers.
func (o *options) define(fs *flag.FlagSet) {
	fs.StringVar(&o.figure, "figure", "all", "figure to regenerate: 2a..6b or 'all'")
	fs.IntVar(&o.trials, "trials", 5, "trials per experimental cell (paper: 25)")
	fs.DurationVar(&o.duration, "duration", 120*time.Second, "simulated time per trial (paper: 500s; scenarios default to their spec)")
	fs.Int64Var(&o.seed, "seed", 1, "base random seed; trial t uses seed+t")
	fs.StringVar(&o.speeds, "speeds", "0,12,24,36,48,60,72", "comma-separated mean speeds (km/h)")
	fs.StringVar(&o.protocols, "protocols", "", "comma-separated protocol subset (default: all five)")
	fs.StringVar(&o.format, "format", "table", "output format: table, csv, json (batch), or chart (figures 6a/6b)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "max concurrent trials — whole runs side by side (0 = GOMAXPROCS)")
	fs.StringVar(&o.scenarios, "scenario", "", "run a batch over comma-separated scenario names and/or JSON spec files")
	fs.BoolVar(&o.verify, "verify", false, "run each -scenario cell under the invariant harness (conservation, ledger agreement, replay determinism, zero leak) instead of the batch engine; exits 1 on any violation")
	fs.BoolVar(&o.list, "list-scenarios", false, "print the built-in scenario catalog and exit")
	fs.StringVar(&o.out, "out", "", "write batch results to this file (.json or .csv; default stdout)")
	fs.StringVar(&o.timeline, "timeline", "", "write per-interval telemetry for every batch cell to this file (.csv for CSV, anything else for JSONL)")
	fs.DurationVar(&o.interval, "interval", time.Second, "telemetry bucket width for -timeline")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile taken at exit to this file")
	fs.BoolVar(&o.eventsRate, "events-per-sec", false, "print kernel throughput (events simulated per wall-clock second) after the run")
	fs.DurationVar(&o.stats, "stats", 0, "emit a live counter heartbeat to stderr at this period (every mode but -verify; 0 disables)")
	fs.StringVar(&o.statsAddr, "statsaddr", "", "serve live stats over HTTP on this address (GET /stats.json, /metrics)")
	fs.StringVar(&o.obsOut, "obs", "", "write the end-of-process observability snapshot (counters, queue depth, sim clock, delay percentiles) to this JSON file")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "run a single -scenario cell writing periodic crash-safe snapshots to this file (atomic rename; resume with -resume); see docs/OPERATIONS.md")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", 10*time.Second, "virtual-time cadence between -checkpoint snapshots")
	fs.StringVar(&o.resumePath, "resume", "", "resume a snapshot file: rebuild the run, replay to the capture instant, verify every state section against its stored digest, run to the horizon")
	fs.StringVar(&o.manifest, "manifest", "", "journal every finished -scenario batch cell to this append-only file (fsync'd per cell); re-running the same grid resumes from it")
}

func main() {
	// `ricasim serve` is a subcommand with its own flag set: the
	// long-lived self-healing service that re-execs this binary as its
	// batch workers.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	o := parseFlags()
	meter.enabled = o.eventsRate
	meter.start = time.Now()
	defer meter.print()

	o.checkCombinations()
	o.startLiveStats()
	o.startProfiles()
	defer func() {
		runExitHooks()
		if exitFailed {
			os.Exit(1)
		}
	}()

	if o.list {
		if o.eventsRate {
			fatalf("-events-per-sec needs a run; it cannot meter -list-scenarios")
		}
		listScenarios()
		return
	}
	if o.verify && o.scenarios == "" {
		fatalf("-verify needs -scenario cells to check")
	}
	if o.resumePath != "" {
		runResume(o)
		return
	}
	// The flag defaults to 1, so a 0 was asked for. Only the batch config
	// can say it (SeedZero); the others read 0 as "the default", and
	// running seed 1 in its place would be a silent substitution.
	if o.seed == 0 && (o.scenarios == "" || o.verify || o.ckptPath != "") {
		fatalf("-seed 0 cannot be expressed in -figure, -verify and -checkpoint runs (their configs read 0 as \"the default\"); use a nonzero seed")
	}
	switch {
	case o.scenarios == "":
		runFigures(o)
	case flagSet("figure"):
		fatalf("-figure and -scenario are mutually exclusive")
	case o.verify:
		runVerify(o)
	case o.ckptPath != "":
		runCheckpoint(o)
	default:
		runBatch(o)
	}
}

// checkCombinations refuses flag values and combinations no mode
// accepts, before anything is opened or run.
func (o *options) checkCombinations() {
	if flagSet("interval") && o.interval <= 0 {
		fatalf("-interval must be positive, got %v", o.interval)
	}
	if o.stats < 0 {
		fatalf("-stats must not be negative, got %v", o.stats)
	}
	if o.ckptEvery <= 0 {
		fatalf("-checkpoint-every must be positive, got %v", o.ckptEvery)
	}
	if o.resumePath != "" {
		for _, bad := range []string{"figure", "scenario", "verify", "timeline", "out", "manifest", "list-scenarios"} {
			if flagSet(bad) {
				fatalf("-resume and -%s are mutually exclusive", bad)
			}
		}
	}
	if flagSet("checkpoint-every") && o.ckptPath == "" {
		fatalf("-checkpoint-every needs a -checkpoint file to write to")
	}
	if o.ckptPath != "" && o.resumePath == "" {
		if o.scenarios == "" {
			fatalf("-checkpoint needs a -scenario cell to run (or -resume to continue one)")
		}
		for _, bad := range []string{"figure", "verify", "timeline", "out", "manifest"} {
			if flagSet(bad) {
				fatalf("-checkpoint and -%s are mutually exclusive", bad)
			}
		}
	}
	if o.manifest != "" {
		if o.timeline != "" {
			fatalf("-manifest and -timeline are mutually exclusive (timelines are not journaled)")
		}
		if o.verify {
			fatalf("-manifest and -verify are mutually exclusive")
		}
	}
	if o.verify {
		// The harness runs every cell twice: a live view would count both.
		for _, bad := range []string{"stats", "statsaddr", "obs"} {
			if flagSet(bad) {
				fatalf("-%s is not supported with -verify", bad)
			}
		}
	}
}

// startLiveStats builds the hub when -stats, -statsaddr or -obs asked
// for one and starts their surfaces: the HTTP endpoint, the stderr
// heartbeat, and the exit hook that writes the final snapshot.
func (o *options) startLiveStats() {
	if o.stats <= 0 && o.statsAddr == "" && o.obsOut == "" {
		return
	}
	hub := rica.NewObsHub()
	o.hub = hub
	if o.statsAddr != "" {
		ln, err := net.Listen("tcp", o.statsAddr)
		if err != nil {
			fatalf("-statsaddr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "stats: serving http://%s/stats.json and http://%s/metrics\n",
			ln.Addr(), ln.Addr())
		srv := &http.Server{Handler: hub.Handler()}
		go func() { _ = srv.Serve(ln) }() // dies with the process
	}
	if o.stats > 0 {
		go heartbeat(hub, o.stats)
	}
	if o.obsOut != "" {
		path := o.obsOut
		exitHooks = append(exitHooks, func() {
			data, err := json.MarshalIndent(hub.Snapshot(), "", "  ")
			if err != nil {
				profileErrf("-obs: %v", err)
				return
			}
			if err := durable.WriteFile(path, append(data, '\n')); err != nil {
				profileErrf("-obs: %v", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		})
	}
}

// startProfiles starts -cpuprofile and registers the exit hooks that
// finish it and write -memprofile.
func (o *options) startProfiles() {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		exitHooks = append(exitHooks, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				profileErrf("-cpuprofile: %v", err)
			}
		})
	}
	if o.memprofile != "" {
		path := o.memprofile
		exitHooks = append(exitHooks, func() {
			f, err := os.Create(path)
			if err != nil {
				profileErrf("-memprofile: %v", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				profileErrf("-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				profileErrf("-memprofile: %v", err)
			}
		})
	}
}

// figureRun is one -figure invocation: the grid options every figure
// shares, and the sweeps and quality cells already run, so `-figure all`
// runs each grid once however many figures project it.
type figureRun struct {
	format  string // -format
	opts    rica.Options
	sweeps  map[float64]rica.SweepResult
	quality *rica.QualityResult
}

// runFigures regenerates the asked-for figure tables (or all of them).
func runFigures(o options) {
	if o.format == "json" {
		fatalf("-format json is only supported with -scenario batches")
	}
	if o.out != "" {
		fatalf("-out is only supported with -scenario batches")
	}
	if o.timeline != "" {
		fatalf("-timeline is only supported with -scenario batches")
	}
	if o.manifest != "" {
		fatalf("-manifest is only supported with -scenario batches")
	}
	f := figureRun{format: o.format, sweeps: map[float64]rica.SweepResult{}, opts: rica.Options{
		Trials:      o.trials,
		Duration:    o.duration,
		BaseSeed:    o.seed,
		Parallelism: o.parallelism,
		Hub:         o.hub,
	}}
	var err error
	if f.opts.Speeds, err = parseFloats(o.speeds); err != nil {
		fatalf("bad -speeds: %v", err)
	}
	f.opts.Protocols = parseProtocols(o.protocols)
	// A figure point is a scenario: the spec validator is the one rule
	// for what -speeds and -duration may be, applied before any run.
	for _, speed := range f.opts.Speeds {
		if _, err := rica.PaperField(speed, 10, f.opts.Duration); err != nil {
			fatalf("-figure: %v", err)
		}
	}

	want := strings.ToLower(o.figure)
	ran := false
	for _, fig := range []struct {
		id    string
		print func()
	}{
		{"2a", func() { f.sweep(10, rica.MetricDelay) }},
		{"2b", func() { f.sweep(20, rica.MetricDelay) }},
		{"3a", func() { f.sweep(10, rica.MetricDelivery) }},
		{"3b", func() { f.sweep(20, rica.MetricDelivery) }},
		{"4a", func() { f.sweep(10, rica.MetricOverhead) }},
		{"4b", func() { f.sweep(20, rica.MetricOverhead) }},
		{"5a", f.qualityTable},
		{"5b", func() {
			if want == "5b" { // avoid printing the shared table twice under 'all'
				f.qualityTable()
			}
		}},
		{"6a", func() { f.series(20) }},
		{"6b", func() { f.series(60) }},
	} {
		if want == "all" || want == fig.id {
			fig.print()
			ran = true
		}
	}
	if !ran {
		fatalf("unknown figure %q (want 2a..6b or all)", o.figure)
	}
}

// sweep prints one projection (Figures 2–4) of the mobility sweep at load.
func (f *figureRun) sweep(load float64, m rica.Metric) {
	s, ok := f.sweeps[load]
	if !ok {
		fmt.Fprintf(os.Stderr, "running %d-cell sweep at %.0f packets/s (%d trials × %v)...\n",
			len(f.opts.Speeds)*len(protocolsOf(f.opts)), load, f.opts.Trials, f.opts.Duration)
		s = rica.Sweep(load, f.opts)
		for _, rows := range s.Cells {
			for _, r := range rows {
				meter.addTrials(r.Trials)
			}
		}
		f.sweeps[load] = s
	}
	if f.format == "csv" {
		fmt.Println(s.CSV(m))
		return
	}
	fmt.Println(s.Table(m))
}

// qualityTable prints Figure 5's route-quality table.
func (f *figureRun) qualityTable() {
	if f.quality == nil {
		fmt.Fprintln(os.Stderr, "running route-quality cells at 72 km/h...")
		q := rica.Quality(72, 10, f.opts)
		for _, r := range q.Cells {
			meter.addTrials(r.Trials)
		}
		f.quality = &q
	}
	if f.format == "csv" {
		fmt.Println(f.quality.CSV())
		return
	}
	fmt.Println(f.quality.Table())
}

// series prints Figure 6's throughput time series at load.
func (f *figureRun) series(load float64) {
	s := rica.Series(load, rica.Figure6SpeedKmh, f.opts)
	for _, r := range s.Cells {
		meter.addTrials(r.Trials)
	}
	switch f.format {
	case "csv":
		fmt.Println(s.CSV())
	case "chart":
		fmt.Println(s.Chart())
	default:
		fmt.Println(s.Table())
	}
}

// installStopSignal arms graceful interruption for modes that support
// it: the first SIGINT/SIGTERM closes the returned channel (every running
// simulation stops at its current instant, buffers flush, the snapshot of
// that instant or the journal of the finished cells lands, and the
// process exits with the distinct interrupted status); a second signal
// forces an immediate exit.
func installStopSignal() <-chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ricasim: interrupt — stopping at the current instant and flushing output; interrupt again to force exit")
		close(stop)
		<-sig
		fmt.Fprintln(os.Stderr, "ricasim: forced exit")
		os.Exit(exitCodeForced)
	}()
	return stop
}

// exitCutShort finishes the exit hooks (profiles, -obs) and the
// throughput summary, then leaves with the interrupted status so
// callers know the output is partial and a snapshot or manifest can
// resume the work.
func exitCutShort() {
	runExitHooks()
	meter.print()
	if exitFailed {
		os.Exit(1)
	}
	os.Exit(exitCodeInterrupted)
}

// loadSpec resolves one -scenario element: a catalog name or a path to
// a JSON spec file.
func loadSpec(part string) rica.Scenario {
	part = strings.TrimSpace(part)
	var (
		spec rica.Scenario
		err  error
	)
	if strings.HasSuffix(part, ".json") {
		spec, err = rica.LoadScenario(part)
	} else {
		spec, err = rica.ScenarioByName(part)
	}
	if err != nil {
		fatalf("%v", err)
	}
	return spec
}

// withDuration gives spec the -duration horizon when one was asked for;
// otherwise a scenario keeps its own.
func (o *options) withDuration(spec rica.Scenario) rica.Scenario {
	if flagSet("duration") {
		spec.Duration = rica.ScenarioDuration(o.duration)
	}
	return spec
}

// singleRunOptions is what -checkpoint and -resume hand rica.Run and
// rica.Resume: the snapshot file and cadence, the signal-driven stop
// channel, and a registry on the hub so -stats, -statsaddr and -obs see
// the run.
func (o *options) singleRunOptions() rica.RunOptions {
	reg := rica.NewObsRegistry()
	o.hub.Attach(reg) // a nil hub ignores it
	return rica.RunOptions{
		Obs:             reg,
		CheckpointPath:  o.ckptPath,
		CheckpointEvery: o.ckptEvery,
		Stop:            installStopSignal(),
	}
}

// runCheckpoint executes one scenario × protocol cell under the
// periodic-snapshot regime; interrupted, its final snapshot resumes it.
func runCheckpoint(o options) {
	if strings.Contains(o.scenarios, ",") {
		fatalf("-checkpoint runs a single scenario; got %q", o.scenarios)
	}
	protos := parseProtocols(o.protocols)
	if len(protos) != 1 {
		fatalf("-checkpoint runs a single cell: pass -protocols with exactly one name")
	}
	r := rica.ScenarioRun{Scenario: o.withDuration(loadSpec(o.scenarios)), Protocol: protos[0], Seed: o.seed}
	s, err := rica.Run(r, o.singleRunOptions())
	// Only ErrInterrupted promises a snapshot to resume; a final snapshot
	// that failed to write is an error like any other.
	if errors.Is(err, rica.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "ricasim: interrupted — resume with: ricasim -resume %s\n", o.ckptPath)
		exitCutShort()
	}
	if err != nil {
		fatalf("%v", err)
	}
	printRunResult(s)
}

// runResume continues a snapshot to its horizon (still checkpointing
// when -checkpoint is given too).
func runResume(o options) {
	f, err := os.Open(o.resumePath)
	if err != nil {
		fatalf("-resume: %v", err)
	}
	defer f.Close()
	s, err := rica.Resume(f, o.singleRunOptions())
	if errors.Is(err, rica.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "ricasim: interrupted again before the horizon")
		exitCutShort()
	}
	if err != nil {
		fatalf("-resume: %v", err)
	}
	printRunResult(s)
}

// printRunResult emits a single checkpointed/resumed run's summary. The
// fingerprint line is the contract CI's kill-and-resume job diffs: a
// resumed run must print the exact line the uninterrupted run prints.
func printRunResult(s rica.Summary) {
	meter.events += s.Events
	fmt.Printf("fingerprint: %s\n", rica.Fingerprint(s))
	fmt.Printf("gen=%d del=%d delivery=%.1f%% avg-delay=%v events=%d\n",
		s.Generated, s.Delivered, s.DeliveryRatio*100, s.AvgDelay, s.Events)
}

// listScenarios prints the built-in catalog.
func listScenarios() {
	fmt.Printf("%-16s%7s%10s  %s\n", "name", "nodes", "duration", "description")
	for _, name := range rica.ScenarioNames() {
		s, err := rica.ScenarioByName(name)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%-16s%7d%10s  %s\n",
			s.Name, s.Topology.NodeCount(), time.Duration(s.Duration), s.Description)
	}
}

// runVerify puts every scenario × protocol cell through the invariant
// harness, one at a time. Each cell simulates twice: once for the ledger
// checks, once to prove replay determinism. An explicit -duration truncates
// long scenarios; it never extends one.
func runVerify(o options) {
	protos := parseProtocols(o.protocols)
	if protos == nil {
		protos = rica.AllProtocols()
	}
	var maxDur time.Duration
	if flagSet("duration") {
		maxDur = o.duration
	}
	failed := false
	for _, part := range strings.Split(o.scenarios, ",") {
		spec := loadSpec(part)
		for _, p := range protos {
			s, err := rica.VerifyScenario(rica.ScenarioRun{
				Scenario: spec, Protocol: p, Seed: o.seed, MaxDuration: maxDur,
			})
			meter.events += 2 * s.Events // the harness runs each cell twice
			if err != nil {
				failed = true
				fmt.Printf("FAIL  %s/%s: %v\n", spec.Name, p, err)
				continue
			}
			fmt.Printf("ok    %s/%s gen=%d del=%d events=%d\n",
				spec.Name, p, s.Generated, s.Delivered, s.Events)
		}
	}
	if failed {
		runExitHooks()
		os.Exit(1)
	}
}

// runBatch executes the scenario × protocol × seed grid and writes the
// results in the requested format. An interrupted grid still flushes its
// partial results and telemetry (and the manifest, when set, journals
// every finished cell for resume), then exits with the interrupted
// status.
func runBatch(o options) {
	outFormat := ""
	if o.out != "" {
		outFormat = outputFormat(o.out, o.format) // resolve (and conflict-check) up front
	}

	cfg := rica.BatchConfig{
		Trials:   o.trials,
		BaseSeed: o.seed,
		SeedZero: o.seed == 0, // the flag defaults to 1, so a 0 was asked for
		Workers:  o.parallelism,
		Hub:      o.hub,
		Manifest: o.manifest,
		Stop:     installStopSignal(),
		OnProgress: func(p rica.BatchProgress) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s seed=%d delivery=%.1f%%\n",
				p.Done, p.Total, p.Cell.Scenario, p.Cell.Protocol, p.Cell.Seed, p.Cell.DeliveryPct)
		},
	}

	var (
		timelineFile *durable.Pending
		timelineBuf  *bufio.Writer
	)
	if o.timeline != "" {
		f, err := createPending(o.timeline)
		if err != nil {
			fatalf("-timeline: %v", err)
		}
		timelineFile = f
		// Sinks write one small row per interval; buffer them so a
		// metro-scale batch isn't syscall-bound on telemetry export.
		timelineBuf = bufio.NewWriter(f)
		sink := rica.NewJSONLTimelineSink(timelineBuf)
		sinkFormat := "JSONL"
		if strings.HasSuffix(o.timeline, ".csv") {
			sink = rica.NewCSVTimelineSink(timelineBuf)
			sinkFormat = "CSV"
		}
		fmt.Fprintf(os.Stderr, "timeline: writing %s to %s (%v buckets)\n",
			sinkFormat, o.timeline, o.interval)
		cfg.Telemetry = &rica.BatchTelemetry{Interval: o.interval, Sink: sink}
	}
	for _, part := range strings.Split(o.scenarios, ",") {
		cfg.Scenarios = append(cfg.Scenarios, o.withDuration(loadSpec(part)))
	}
	cfg.Protocols = parseProtocols(o.protocols)

	// Open the output before burning batch time on it.
	var outFile *durable.Pending
	if o.out != "" {
		f, err := createPending(o.out)
		if err != nil {
			fatalf("%v", err)
		}
		outFile = f
	}

	res, err := rica.RunBatch(cfg)
	interrupted := errors.Is(err, rica.ErrInterrupted)
	if err != nil && !interrupted {
		fatalf("%v", err)
	}
	if res.Restored > 0 {
		fmt.Fprintf(os.Stderr, "manifest: restored %d of %d cells from %s\n",
			res.Restored, len(res.Cells), o.manifest)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "ricasim: interrupted — flushing partial results")
	}
	for _, c := range res.Cells {
		meter.events += c.Events
	}
	// Flush even when interrupted: the whole point of a graceful stop is
	// that buffered timeline and result bytes reach disk.
	if timelineFile != nil {
		err := timelineBuf.Flush()
		if err == nil {
			err = timelineFile.Commit()
		}
		if err != nil {
			fatalf("writing %s: %v", o.timeline, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.timeline)
	}
	if res.Poisoned > 0 {
		fmt.Fprintf(os.Stderr, "ricasim: %d poisoned cell(s) — quarantined, see their error/stack fields in the results\n", res.Poisoned)
		exitFailed = true // non-zero exit after output is written
	}

	switch {
	case outFile != nil:
		if outFormat == "csv" {
			err = res.WriteCSV(outFile)
		} else {
			err = res.WriteJSON(outFile)
		}
		if err == nil {
			err = outFile.Commit()
		}
		if err != nil {
			fatalf("writing %s: %v", o.out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.out)
		fmt.Print(res.Table())
	case o.format == "json":
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	case o.format == "csv":
		if err := res.WriteCSV(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	default:
		fmt.Print(res.Table())
	}
	if interrupted {
		exitCutShort()
	}
}

// createPending opens an output that appears under its final name only
// once it is complete (see durable.Pending) — the daemon's /result
// handler and the supervisor's "exit 0 with a result" check can never
// see an empty or half-written file. The temp file is opened up front,
// so an unwritable directory fails before any simulation time is spent,
// and removed at exit if the run never commits it.
func createPending(path string) (*durable.Pending, error) {
	f, err := durable.CreatePending(path)
	if err != nil {
		return nil, err
	}
	exitHooks = append(exitHooks, f.Abort)
	return f, nil
}

// flagSet reports whether the named flag was given explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// outputFormat resolves what bytes go into -out. The file extension is
// authoritative (.json/.csv); an explicitly conflicting -format is an
// error, and other extensions follow -format (defaulting to json).
func outputFormat(out, format string) string {
	ext := ""
	switch {
	case strings.HasSuffix(out, ".json"):
		ext = "json"
	case strings.HasSuffix(out, ".csv"):
		ext = "csv"
	}
	if ext != "" {
		if flagSet("format") && format != ext && (format == "json" || format == "csv") {
			fatalf("-format %s conflicts with -out %s", format, out)
		}
		return ext
	}
	if format == "csv" || format == "json" {
		return format
	}
	return "json"
}

// parseProtocols resolves a comma-separated protocol subset; empty means
// "all five" (nil).
func parseProtocols(s string) []rica.Protocol {
	if s == "" {
		return nil
	}
	var out []rica.Protocol
	for _, name := range strings.Split(s, ",") {
		p, err := rica.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		out = append(out, p)
	}
	return out
}

func protocolsOf(o rica.Options) []rica.Protocol {
	if o.Protocols != nil {
		return o.Protocols
	}
	return rica.AllProtocols()
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// heartbeat prints a one-line live counter summary every period until the
// process exits. It only reads the hub's folded atomics — it never blocks
// or perturbs the simulation goroutines.
func heartbeat(hub *rica.ObsHub, period time.Duration) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for range tick.C {
		s := hub.Snapshot()
		fmt.Fprintf(os.Stderr, "stats: sim=%s events=%d gen=%d dlv=%d p50=%s queue=%d\n",
			time.Duration(s.SimNowNs).Round(time.Millisecond),
			s.EventsDispatched, s.TrafficGenerated, s.DelayCount,
			time.Duration(s.DelayP50Ns).Round(time.Microsecond), s.QueueDepth)
	}
}

// eventMeter accumulates kernel event counts across every run the command
// performs, so -events-per-sec can report simulator throughput without a
// separate benchmark invocation.
type eventMeter struct {
	enabled bool
	start   time.Time
	events  uint64
}

var meter eventMeter

// addTrials folds one experiment cell's per-trial summaries in.
func (m *eventMeter) addTrials(trials []rica.Summary) {
	for _, s := range trials {
		m.events += s.Events
	}
}

// print emits the summary line when metering is on and something ran.
func (m *eventMeter) print() {
	if !m.enabled {
		return
	}
	secs := time.Since(m.start).Seconds()
	if m.events == 0 || secs <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "kernel: %d events in %.2fs wall = %.0f events/sec\n",
		m.events, secs, float64(m.events)/secs)
}

// exitHooks finish in-flight profiling. They run (last added first) both
// on normal return and before fatalf's os.Exit, so an error anywhere in
// a profiled run still leaves valid, closed profile files behind.
var exitHooks []func()

// exitFailed records a late failure (a profile-write error from an exit
// hook, or poisoned batch cells) that must surface as exit status 1
// after all output has been written (hooks must not call fatalf — it
// would re-enter them).
var exitFailed bool

func profileErrf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ricasim: "+format+"\n", args...)
	exitFailed = true
}

func runExitHooks() {
	hooks := exitHooks
	exitHooks = nil
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}

func fatalf(format string, args ...any) {
	runExitHooks()
	fmt.Fprintf(os.Stderr, "ricasim: "+format+"\n", args...)
	os.Exit(1)
}
