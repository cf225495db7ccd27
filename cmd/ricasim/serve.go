package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rica/internal/serve"
)

// serveMain runs `ricasim serve`: the long-lived self-healing
// simulation service. Jobs are submitted over HTTP and executed by
// supervised child workers — each worker is this same binary in batch
// mode with a manifest journal, so a crashed or killed worker restarts
// and resumes with zero recompute and results stay byte-identical to
// an undisturbed run. See docs/OPERATIONS.md, "Service mode".
func serveMain(args []string) {
	fs := flag.NewFlagSet("ricasim serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:7117", "HTTP listen address for the control plane")
		data         = fs.String("data", "ricasim-serve", "data directory (job specs, manifest journals, results)")
		maxActive    = fs.Int("max-active", 1, "jobs running at once (each worker parallelizes internally)")
		maxQueue     = fs.Int("max-queue", 16, "queued-job bound; submissions past it get 429 + Retry-After")
		maxJobs      = fs.Int("max-jobs", 64, "job store bound; the oldest finished job is shed to admit new work")
		maxRestarts  = fs.Int("max-restarts", 10, "per-job crash/hang healing budget")
		hungTimeout  = fs.Duration("hung-timeout", 2*time.Minute, "kill a worker whose heartbeat stalls this long")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "SIGTERM drain bound before force-killing workers")
	)
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fatalf("serve: unexpected argument %q", fs.Arg(0))
	}

	srv, err := serve.New(serve.Config{
		Dir:          *data,
		MaxActive:    *maxActive,
		MaxQueue:     *maxQueue,
		MaxJobs:      *maxJobs,
		MaxRestarts:  *maxRestarts,
		HungTimeout:  *hungTimeout,
		DrainTimeout: *drainTimeout,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fatalf("serve: %v", err)
	}
	if err := srv.Start(); err != nil {
		fatalf("serve: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serve: control plane on http://%s (POST /jobs, GET /jobs/{id}, /healthz, /readyz, /metrics)\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatalf("serve: http: %v", err)
		}
	}()

	// The exit-code contract matches the batch CLI: a signal drains
	// (workers stop at their current instant and journal their finished
	// cells) and exits 3 if anything was cut short — a restarted daemon
	// resumes it — or 0 if the store was idle; a second signal forces
	// exit 130.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	fmt.Fprintln(os.Stderr, "serve: signal — draining workers; signal again to force exit")
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "serve: forced exit")
		os.Exit(exitCodeForced)
	}()
	interrupted := srv.Shutdown()
	_ = httpSrv.Close()
	if interrupted {
		fmt.Fprintln(os.Stderr, "serve: drained with jobs interrupted — restart to resume them")
		exitWith(exitCodeInterrupted)
	}
}

// exitWith runs the registered exit hooks (profiles, obs snapshots)
// before leaving with the given code.
func exitWith(code int) {
	runExitHooks()
	os.Exit(code)
}
