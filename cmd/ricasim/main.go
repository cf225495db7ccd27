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
	"rica/internal/experiment"
)

// Exit statuses: 0 success, 1 error, exitInterrupted when a signal (or
// a second one, forcing) cut the work short — so schedulers and CI can
// tell "failed" from "stopped early, resume me".
const (
	exitCodeInterrupted = 3
	exitCodeForced      = 130
)

func main() {
	// `ricasim serve` is a subcommand with its own flag set: the
	// long-lived self-healing service that re-execs this binary as its
	// batch workers.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		figure      = flag.String("figure", "all", "figure to regenerate: 2a..6b or 'all'")
		trials      = flag.Int("trials", 5, "trials per experimental cell (paper: 25)")
		duration    = flag.Duration("duration", 120*time.Second, "simulated time per trial (paper: 500s; scenarios default to their spec)")
		seed        = flag.Int64("seed", 1, "base random seed; trial t uses seed+t")
		speeds      = flag.String("speeds", "0,12,24,36,48,60,72", "comma-separated mean speeds (km/h)")
		protocols   = flag.String("protocols", "", "comma-separated protocol subset (default: all five)")
		format      = flag.String("format", "table", "output format: table, csv, json (batch), or chart (figures 6a/6b)")
		parallelism = flag.Int("parallelism", 0, "max concurrent trials — whole runs side by side (0 = GOMAXPROCS)")
		scenarios   = flag.String("scenario", "", "run a batch over comma-separated scenario names and/or JSON spec files")
		verify      = flag.Bool("verify", false, "run each -scenario cell under the invariant harness (conservation, ledger agreement, replay determinism, zero leak) instead of the batch engine; exits 1 on any violation")
		list        = flag.Bool("list-scenarios", false, "print the built-in scenario catalog and exit")
		out         = flag.String("out", "", "write batch results to this file (.json or .csv; default stdout)")
		timeline    = flag.String("timeline", "", "write per-interval telemetry for every batch cell to this file (.csv for CSV, anything else for JSONL)")
		interval    = flag.Duration("interval", time.Second, "telemetry bucket width for -timeline")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile taken at exit to this file")
		eventsRate  = flag.Bool("events-per-sec", false, "print kernel throughput (events simulated per wall-clock second) after the run")
		stats       = flag.Duration("stats", 0, "emit a live counter heartbeat to stderr at this period (scenario batches; 0 disables)")
		statsAddr   = flag.String("statsaddr", "", "serve live stats over HTTP on this address (GET /stats.json, /metrics)")
		obsOut      = flag.String("obs", "", "write the end-of-process observability snapshot (counters + pool stats) to this JSON file")
		ckptPath    = flag.String("checkpoint", "", "run a single -scenario cell writing periodic crash-safe snapshots to this file (atomic rename; resume with -resume); see docs/OPERATIONS.md")
		ckptEvery   = flag.Duration("checkpoint-every", 10*time.Second, "virtual-time cadence between -checkpoint snapshots")
		resumePath  = flag.String("resume", "", "resume a snapshot file: rebuild the run, replay to the capture instant, verify every state section against its stored digest, run to the horizon")
		manifest    = flag.String("manifest", "", "journal every finished -scenario batch cell to this append-only file (fsync'd per cell); re-running the same grid resumes from it")
	)
	flag.Parse()
	meter.enabled = *eventsRate
	meter.start = time.Now()
	defer meter.print()

	if flagSet("interval") && *interval <= 0 {
		fatalf("-interval must be positive, got %v", *interval)
	}
	if *stats < 0 {
		fatalf("-stats must not be negative, got %v", *stats)
	}
	if *ckptEvery <= 0 {
		fatalf("-checkpoint-every must be positive, got %v", *ckptEvery)
	}
	if *resumePath != "" {
		for _, bad := range []string{"figure", "scenario", "verify", "timeline", "out", "manifest", "list-scenarios"} {
			if flagSet(bad) {
				fatalf("-resume and -%s are mutually exclusive", bad)
			}
		}
	}
	if flagSet("checkpoint-every") && *ckptPath == "" {
		fatalf("-checkpoint-every needs a -checkpoint file to write to")
	}
	if *ckptPath != "" && *resumePath == "" {
		if *scenarios == "" {
			fatalf("-checkpoint needs a -scenario cell to run (or -resume to continue one)")
		}
		for _, bad := range []string{"figure", "verify", "timeline", "out", "manifest"} {
			if flagSet(bad) {
				fatalf("-checkpoint and -%s are mutually exclusive", bad)
			}
		}
	}
	if *manifest != "" {
		if *timeline != "" {
			fatalf("-manifest and -timeline are mutually exclusive (timelines are not journaled)")
		}
		if *verify {
			fatalf("-manifest and -verify are mutually exclusive")
		}
	}
	var hub *rica.ObsHub
	if *stats > 0 || *statsAddr != "" || *obsOut != "" {
		hub = rica.NewObsHub()
		hub.PoolFunc = rica.PoolStats
	}
	if *statsAddr != "" {
		ln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			fatalf("-statsaddr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "stats: serving http://%s/stats.json and http://%s/metrics\n",
			ln.Addr(), ln.Addr())
		srv := &http.Server{Handler: hub.Handler()}
		go func() { _ = srv.Serve(ln) }() // dies with the process
	}
	if *stats > 0 {
		go heartbeat(hub, *stats)
	}
	if *obsOut != "" {
		path := *obsOut
		exitHooks = append(exitHooks, func() {
			data, err := json.MarshalIndent(hub.Snapshot(), "", "  ")
			if err != nil {
				profileErrf("-obs: %v", err)
				return
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				profileErrf("-obs: %v", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		})
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
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
	if *memprofile != "" {
		path := *memprofile
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
	defer func() {
		runExitHooks()
		if exitFailed {
			os.Exit(1)
		}
	}()

	if *list {
		if *eventsRate {
			fatalf("-events-per-sec needs a run; it cannot meter -list-scenarios")
		}
		listScenarios()
		return
	}
	if *verify && *scenarios == "" {
		fatalf("-verify needs -scenario cells to check")
	}
	if *resumePath != "" {
		if runResume(*resumePath, *ckptPath, *ckptEvery, installStopSignal()) {
			exitCutShort()
		}
		return
	}
	// The flag defaults to 1, so a 0 was asked for. Only the batch config
	// can say it (SeedZero); the others read 0 as "the default", and
	// running seed 1 in its place would be a silent substitution.
	if *seed == 0 && (*scenarios == "" || *verify || *ckptPath != "") {
		fatalf("-seed 0 cannot be expressed in -figure, -verify and -checkpoint runs (their configs read 0 as \"the default\"); use a nonzero seed")
	}
	if *scenarios != "" {
		if flagSet("figure") {
			fatalf("-figure and -scenario are mutually exclusive")
		}
		if *verify {
			var maxDur time.Duration
			if flagSet("duration") {
				maxDur = *duration
			}
			runVerify(*scenarios, *protocols, *seed, maxDur)
			return
		}
		if *ckptPath != "" {
			if runCheckpointed(*scenarios, *protocols, *seed, *duration, flagSet("duration"),
				*ckptPath, *ckptEvery, installStopSignal()) {
				exitCutShort()
			}
			return
		}
		if runBatch(*scenarios, *protocols, *trials, *seed, *parallelism,
			*duration, *format, *out, *timeline, *interval, *manifest, hub,
			installStopSignal()) {
			exitCutShort()
		}
		return
	}

	if *format == "json" {
		fatalf("-format json is only supported with -scenario batches")
	}
	if *out != "" {
		fatalf("-out is only supported with -scenario batches")
	}
	if *timeline != "" {
		fatalf("-timeline is only supported with -scenario batches")
	}
	opts := rica.Options{
		Trials:      *trials,
		Duration:    *duration,
		BaseSeed:    *seed,
		Parallelism: *parallelism,
	}
	var err error
	if opts.Speeds, err = parseFloats(*speeds); err != nil {
		fatalf("bad -speeds: %v", err)
	}
	opts.Protocols = parseProtocols(*protocols)
	// A figure point is a scenario: the spec validator is the one rule
	// for what -speeds and -duration may be, applied before any run.
	for _, speed := range opts.Speeds {
		if _, err := experiment.FieldSpec(speed, 10, opts.Duration); err != nil {
			fatalf("-figure: %v", err)
		}
	}

	want := strings.ToLower(*figure)
	ran := false
	run := func(id string, fn func()) {
		if want == "all" || want == id {
			fn()
			ran = true
		}
	}

	var sweep10, sweep20 *rica.SweepResult
	getSweep := func(load float64) rica.SweepResult {
		cache := &sweep10
		if load == 20 {
			cache = &sweep20
		}
		if *cache == nil {
			fmt.Fprintf(os.Stderr, "running %d-cell sweep at %.0f packets/s (%d trials × %v)...\n",
				len(opts.Speeds)*len(protocolsOf(opts)), load, opts.Trials, opts.Duration)
			s := rica.Sweep(load, opts)
			for _, rows := range s.Cells {
				for _, r := range rows {
					meter.addTrials(r.Trials)
				}
			}
			*cache = &s
		}
		return **cache
	}

	sweepOut := func(load float64, m rica.Metric) {
		s := getSweep(load)
		if *format == "csv" {
			fmt.Println(s.CSV(m))
			return
		}
		fmt.Println(s.Table(m))
	}
	run("2a", func() { sweepOut(10, rica.MetricDelay) })
	run("2b", func() { sweepOut(20, rica.MetricDelay) })
	run("3a", func() { sweepOut(10, rica.MetricDelivery) })
	run("3b", func() { sweepOut(20, rica.MetricDelivery) })
	run("4a", func() { sweepOut(10, rica.MetricOverhead) })
	run("4b", func() { sweepOut(20, rica.MetricOverhead) })

	var quality *rica.QualityResult
	getQuality := func() rica.QualityResult {
		if quality == nil {
			fmt.Fprintln(os.Stderr, "running route-quality cells at 72 km/h...")
			q := rica.Quality(72, 10, opts)
			for _, r := range q.Cells {
				meter.addTrials(r.Trials)
			}
			quality = &q
		}
		return *quality
	}
	qualityOut := func() {
		if *format == "csv" {
			fmt.Println(getQuality().CSV())
			return
		}
		fmt.Println(getQuality().Table())
	}
	run("5a", func() { qualityOut() })
	run("5b", func() {
		if want == "5b" { // avoid printing the shared table twice under 'all'
			qualityOut()
		}
	})

	seriesOut := func(load float64) {
		s := rica.Series(load, rica.Figure6SpeedKmh, opts)
		for _, r := range s.Cells {
			meter.addTrials(r.Trials)
		}
		switch *format {
		case "csv":
			fmt.Println(s.CSV())
		case "chart":
			fmt.Println(s.Chart())
		default:
			fmt.Println(s.Table())
		}
	}
	run("6a", func() { seriesOut(20) })
	run("6b", func() { seriesOut(60) })

	if !ran {
		fatalf("unknown figure %q (want 2a..6b or all)", *figure)
	}
}

// installStopSignal arms graceful interruption for modes that support
// it: the first SIGINT/SIGTERM closes the returned channel (in-flight
// work drains, buffers flush, a final snapshot or journal line lands,
// and the process exits with the distinct interrupted status); a second
// signal forces an immediate exit.
func installStopSignal() chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ricasim: interrupt — draining in-flight work and flushing output; interrupt again to force exit")
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

// runCheckpointed executes one scenario × protocol cell under the
// periodic-snapshot regime. Returns true when the run was interrupted
// (the final snapshot resumes it).
func runCheckpointed(scenarioArg, protocols string, seed int64,
	duration time.Duration, durationSet bool, path string, every time.Duration,
	stop <-chan struct{}) bool {
	if strings.Contains(scenarioArg, ",") {
		fatalf("-checkpoint runs a single scenario; got %q", scenarioArg)
	}
	protos := parseProtocols(protocols)
	if len(protos) != 1 {
		fatalf("-checkpoint runs a single cell: pass -protocols with exactly one name")
	}
	spec := loadSpec(scenarioArg)
	if durationSet {
		spec.Duration = rica.ScenarioDuration(duration)
	}
	r := rica.ScenarioRun{Scenario: spec, Protocol: protos[0], Seed: seed}
	s, _, err := rica.RunCheckpointed(r, path, every, stop)
	// Only ErrInterrupted promises a snapshot to resume; a final snapshot
	// that failed to write is an error like any other.
	if errors.Is(err, rica.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "ricasim: interrupted — resume with: ricasim -resume %s\n", path)
		return true
	}
	if err != nil {
		fatalf("%v", err)
	}
	printRunResult(s)
	return false
}

// runResume continues a snapshot to its horizon (optionally still
// checkpointing). Returns true when interrupted again.
func runResume(path, ckpt string, every time.Duration, stop <-chan struct{}) bool {
	f, err := os.Open(path)
	if err != nil {
		fatalf("-resume: %v", err)
	}
	defer f.Close()
	s, _, err := rica.ResumeCheckpointed(f, ckpt, every, stop)
	if errors.Is(err, rica.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "ricasim: interrupted again before the horizon")
		return true
	}
	if err != nil {
		fatalf("-resume: %v", err)
	}
	printRunResult(s)
	return false
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
// harness, one at a time (the pooled-packet leak check needs the process
// to itself). Each cell simulates twice: once for the ledger checks,
// once to prove replay determinism.
func runVerify(list, protocols string, seed int64, maxDur time.Duration) {
	protos := parseProtocols(protocols)
	if protos == nil {
		protos = rica.AllProtocols()
	}
	failed := false
	for _, part := range strings.Split(list, ",") {
		spec := loadSpec(part)
		for _, p := range protos {
			s, err := rica.VerifyScenario(rica.ScenarioRun{
				Scenario: spec, Protocol: p, Seed: seed, MaxDuration: maxDur,
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
// results in the requested format. Returns true when the grid was
// interrupted: the partial results and telemetry still flush (and the
// manifest, when set, journals every finished cell for resume), but the
// process must exit with the interrupted status.
func runBatch(list, protocols string, trials int, seed int64, parallelism int,
	duration time.Duration, format, out, timeline string, interval time.Duration,
	manifest string, hub *rica.ObsHub, stop <-chan struct{}) bool {
	durationSet := flagSet("duration")
	outFormat := ""
	if out != "" {
		outFormat = outputFormat(out, format) // resolve (and conflict-check) up front
	}

	cfg := rica.BatchConfig{
		Trials:   trials,
		BaseSeed: seed,
		SeedZero: seed == 0, // the flag defaults to 1, so a 0 was asked for
		Workers:  parallelism,
		Hub:      hub,
		Manifest: manifest,
		Stop:     stop,
		OnProgress: func(p rica.BatchProgress) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s seed=%d delivery=%.1f%%\n",
				p.Done, p.Total, p.Cell.Scenario, p.Cell.Protocol, p.Cell.Seed, p.Cell.DeliveryPct)
		},
	}

	var (
		timelineFile *durable.Pending
		timelineBuf  *bufio.Writer
	)
	if timeline != "" {
		f, err := createPending(timeline)
		if err != nil {
			fatalf("-timeline: %v", err)
		}
		timelineFile = f
		// Sinks write one small row per interval; buffer them so a
		// metro-scale batch isn't syscall-bound on telemetry export.
		timelineBuf = bufio.NewWriter(f)
		sink := rica.NewJSONLTimelineSink(timelineBuf)
		sinkFormat := "JSONL"
		if strings.HasSuffix(timeline, ".csv") {
			sink = rica.NewCSVTimelineSink(timelineBuf)
			sinkFormat = "CSV"
		}
		fmt.Fprintf(os.Stderr, "timeline: writing %s to %s (%v buckets)\n",
			sinkFormat, timeline, interval)
		cfg.Telemetry = &rica.BatchTelemetry{Interval: interval, Sink: sink}
	}
	for _, part := range strings.Split(list, ",") {
		spec := loadSpec(part)
		if durationSet {
			spec.Duration = rica.ScenarioDuration(duration)
		}
		cfg.Scenarios = append(cfg.Scenarios, spec)
	}
	cfg.Protocols = parseProtocols(protocols)

	// Open the output before burning batch time on it.
	var outFile *durable.Pending
	if out != "" {
		f, err := createPending(out)
		if err != nil {
			fatalf("%v", err)
		}
		outFile = f
	}

	res, err := rica.RunBatch(cfg)
	interrupted := errors.Is(err, rica.ErrBatchInterrupted)
	if err != nil && !interrupted {
		fatalf("%v", err)
	}
	if res.Restored > 0 {
		fmt.Fprintf(os.Stderr, "manifest: restored %d of %d cells from %s\n",
			res.Restored, len(res.Cells), manifest)
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
			fatalf("writing %s: %v", timeline, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", timeline)
	}
	if res.Poisoned > 0 {
		fmt.Fprintf(os.Stderr, "ricasim: %d poisoned cell(s) — quarantined, see their error/stack fields in the results\n", res.Poisoned)
		exitFailed = true // non-zero exit after output is written
	}

	if outFile != nil {
		if outFormat == "csv" {
			err = res.WriteCSV(outFile)
		} else {
			err = res.WriteJSON(outFile)
		}
		if err == nil {
			err = outFile.Commit()
		}
		if err != nil {
			fatalf("writing %s: %v", out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
		fmt.Print(res.Table())
		return interrupted
	}
	switch format {
	case "json":
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	case "csv":
		if err := res.WriteCSV(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	default:
		fmt.Print(res.Table())
	}
	return interrupted
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
		line := fmt.Sprintf("stats: sim=%s events=%d gen=%d dlv=%d p50=%s queue=%d",
			time.Duration(s.SimNowNs).Round(time.Millisecond),
			s.EventsDispatched, s.TrafficGenerated, s.DelayCount,
			time.Duration(s.DelayP50Ns).Round(time.Microsecond), s.QueueDepth)
		if s.Pool != nil {
			line += fmt.Sprintf(" pool=%d/hw%d", s.Pool.Live, s.Pool.HighWater)
		}
		fmt.Fprintln(os.Stderr, line)
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
