package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// daemon is a running `ricasim serve`, driven only through its HTTP API.
type daemon struct {
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
	wait   func() (cpu time.Duration, rssKB int64)
	pid    int
}

// startDaemon launches `ricasim serve` on a free loopback port with its
// own process group and data directory under dir, and returns once
// /readyz answers 200.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	cmd := command(ctx, bin, "serve", "-addr", addr, "-data", filepath.Join(dir, "data"), "-drain-timeout", "2s")
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{}), pid: cmd.Process.Pid}
	var cpu time.Duration
	var rssKB int64
	go func() {
		_ = cmd.Wait() // the exit status is the caller's business only through jobs failing
		logf.Close()
		cpu, rssKB = usage(cmd.ProcessState)
		close(d.exited)
	}()
	d.wait = func() (time.Duration, int64) { <-d.exited; return cpu, rssKB }

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			log, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("ricasim serve exited before it was ready: %s", tail(log, 400))
		default:
		}
		if resp, err := http.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("ricasim serve not ready on %s after 10s", addr)
}

// stop drains the daemon with SIGTERM, force-kills its group if the
// drain overruns, and returns its cumulative rusage — which includes
// every worker it reaped.
func (d *daemon) stop() (cpu time.Duration, rssKB int64) {
	_ = syscall.Kill(d.pid, syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = syscall.Kill(-d.pid, syscall.SIGKILL)
	}
	return d.wait()
}

// jobStatus is the part of GET /jobs/{id} the harness checks.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Reason   string `json:"reason"`
	Restarts int    `json:"restarts"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// jobTimes are the client-side instants of one job's life. The event
// stream's own timestamps have one-second resolution, so the follower
// stamps each event as it arrives instead.
type jobTimes struct {
	submit, accepted time.Time // POST sent, 202 in hand
	started          time.Time // "started" event: a worker was spawned
	firstCell        time.Time // first "progress" event
	terminal         time.Time // poll saw a terminal state
	fetched          time.Time // result bytes in hand
}

// runJob submits body, polls the job every 10 ms to a terminal state and
// fetches the result. With follow set it also reads the job's event
// stream to timestamp the worker's spawn and first cell (traced pass
// only: the extra connection is load the end-to-end numbers must not see).
func (d *daemon) runJob(ctx context.Context, body []byte, follow bool) ([]byte, jobStatus, jobTimes, error) {
	var st jobStatus
	t := jobTimes{submit: time.Now()}
	code, raw, err := d.do(ctx, http.MethodPost, "/jobs", body)
	t.accepted = time.Now()
	if err != nil {
		return nil, st, t, err
	}
	if code != http.StatusAccepted {
		return nil, st, t, fmt.Errorf("POST /jobs: %d: %s", code, tail(raw, 200))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, st, t, fmt.Errorf("POST /jobs: %w", err)
	}

	// The follower reports through a buffered channel and dies with fctx,
	// so an early return neither blocks on it nor races with it.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	followed := make(chan [2]time.Time, 1)
	if follow {
		go func() { followed <- d.follow(fctx, st.ID) }()
	}

	for !st.terminal() {
		select {
		case <-ctx.Done():
			return nil, st, t, ctx.Err()
		case <-d.exited:
			return nil, st, t, fmt.Errorf("daemon exited while job %s was %s", st.ID, st.State)
		case <-time.After(10 * time.Millisecond):
		}
		code, raw, err := d.do(ctx, http.MethodGet, "/jobs/"+st.ID, nil)
		if err != nil {
			return nil, st, t, err
		}
		if code != http.StatusOK {
			return nil, st, t, fmt.Errorf("GET /jobs/%s: %d", st.ID, code)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, st, t, err
		}
	}
	t.terminal = time.Now()
	code, result, err := d.do(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", nil)
	t.fetched = time.Now()
	if follow {
		f := <-followed
		t.started, t.firstCell = f[0], f[1]
	}
	if err != nil {
		return nil, st, t, err
	}
	if code != http.StatusOK {
		return nil, st, t, fmt.Errorf("GET /jobs/%s/result: %d (job %s: %s)", st.ID, code, st.State, st.Reason)
	}
	return result, st, t, nil
}

// follow reads the job's event stream to its end and returns when the
// "started" and the first "progress" event arrived (zero if never).
func (d *daemon) follow(ctx context.Context, id string) (at [2]time.Time) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+id+"/events?follow=1", nil)
	if err != nil {
		return at
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return at
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch {
		case ev.Type == "started" && at[0].IsZero():
			at[0] = time.Now()
		case ev.Type == "progress" && at[1].IsZero():
			at[1] = time.Now()
		}
	}
	return at
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
