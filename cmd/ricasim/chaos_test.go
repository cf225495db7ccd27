package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"rica/internal/serve"
)

// TestServeChaosByteIdentical is the service's proof obligation: a grid
// whose worker is kill -9'd at a random moment mid-run must, after the
// supervisor heals it, export results byte-identical to an undisturbed
// run of the same grid. The supervisor restarts the worker, the worker
// resumes from its manifest journal with zero recompute, and the
// deterministic engine guarantees the recomputed tail matches — so the
// bytes must too.
func TestServeChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	bin := ricasimBinary(t)

	const (
		scenarioList = "dense-urban,jammer-grid"
		trials       = "3"
		durationS    = 6.0
	)

	// Undisturbed baseline, flag-for-flag what a serve worker runs.
	base := t.TempDir()
	baselinePath := filepath.Join(base, "baseline.json")
	cmd := exec.Command(bin,
		"-scenario", scenarioList, "-protocols", "RICA",
		"-trials", trials, "-seed", "1",
		"-manifest", filepath.Join(base, "manifest"),
		"-out", baselinePath, "-format", "json",
		"-stats", "1s", "-statsaddr", "127.0.0.1:0",
		"-duration", fmt.Sprintf("%gs", durationS))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("baseline run: %v\n%s", err, out)
	}
	baseline, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}

	// The daemon, on an ephemeral port.
	daemon, baseURL := startServeDaemon(t, bin, t.TempDir())
	defer func() {
		_ = daemon.Process.Signal(syscall.SIGTERM)
		_, _ = daemon.Process.Wait()
	}()

	spec := fmt.Sprintf(`{"scenarios":["dense-urban","jammer-grid"],"protocols":["RICA"],"trials":%s,"seed":1,"duration_s":%g}`,
		trials, durationS)
	resp, err := http.Post(baseURL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// Chaos: the moment the worker has journaled at least one cell,
	// kill -9 it. Repeat while restarts are cheap, then let it finish.
	type status struct {
		State     string `json:"state"`
		Reason    string `json:"reason"`
		Restarts  int    `json:"restarts"`
		Restored  int    `json:"restored"`
		DoneCells int    `json:"done_cells"`
		WorkerPID int    `json:"worker_pid"`
	}
	poll := func() status {
		var s status
		resp, err := http.Get(baseURL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The loop asks for the result first, on every pass, and only then
	// looks at the state: anything other than 409 "no result yet" must be
	// the complete export — a 200 with an empty, partial or otherwise
	// different body at any moment of the run is a torn result.
	kills := 0
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("chaos run did not finish: %+v", poll())
		}
		if result, ok := fetchResult(t, baseURL, st.ID); ok {
			if !json.Valid(result) {
				t.Fatalf("/result answered 200 with an unparsable %d-byte body", len(result))
			}
			if !bytes.Equal(result, baseline) {
				t.Fatalf("chaos export differs from undisturbed run: %d vs %d bytes", len(result), len(baseline))
			}
			s := poll()
			if s.State != "done" {
				t.Errorf("/result served while the job is %s", s.State)
			}
			if kills == 0 {
				t.Fatal("grid finished before any worker was killed; grow the grid")
			}
			if s.Restarts < kills {
				t.Errorf("restarts=%d after %d kills", s.Restarts, kills)
			}
			t.Logf("byte-identical after %d kill -9s (restored %d cells on last resume)", kills, s.Restored)
			return
		}
		s := poll()
		switch s.State {
		case "failed", "canceled":
			t.Fatalf("job %s: %s", s.State, s.Reason)
		case "running":
			if kills < 2 && s.WorkerPID > 0 && s.DoneCells > kills {
				_ = syscall.Kill(s.WorkerPID, syscall.SIGKILL)
				kills++
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDrainStopsInFlightCell: draining a daemon whose worker is in
// the middle of a long cell — metro-500 × LinkState at its default 60 s,
// about 17 s of wall time — is a graceful stop, not a kill. The worker
// stops the cell at its current instant and exits 3 within the drain
// bound, so Shutdown returns in well under the 10 s DrainTimeout and the
// job is left interrupted for a restarted daemon to resume.
func TestServeDrainStopsInFlightCell(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)
	dir := t.TempDir()
	srv, err := serve.New(serve.Config{Dir: dir, WorkerBin: bin, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit(serve.JobSpec{Scenarios: []string{"metro-500"}, Protocols: []string{"LinkState"}, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The worker's first heartbeat: its cell is running and its signal
	// handler is installed.
	workerLog := filepath.Join(dir, "jobs", st.ID, "worker.log")
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if data, _ := os.ReadFile(workerLog); bytes.Contains(data, []byte("stats: sim=")) {
			break
		}
		if time.Now().After(deadline) {
			srv.Shutdown()
			t.Fatal("the worker never sent a heartbeat")
		}
	}
	start := time.Now()
	interrupted := srv.Shutdown()
	took := time.Since(start)
	t.Logf("Shutdown returned %v after the drain began", took)
	if took > 2*time.Second {
		t.Errorf("Shutdown took %v, want within 2s", took.Round(time.Millisecond))
	}
	if !interrupted {
		t.Error("Shutdown reported nothing interrupted")
	}
	j, _ := srv.Job(st.ID)
	if got := j.State(); got != serve.StateInterrupted {
		t.Errorf("job is %s after the drain, want interrupted", got)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(events, []byte("worker exit code 3")) || bytes.Contains(events, []byte("worker killed by signal")) {
		t.Errorf("the drained worker did not exit 3 on its own:\n%s", events)
	}
}

// TestServeOverloadReturns429 floods the daemon's queue and asserts
// admission control answers 429 + Retry-After while /healthz stays 200
// — overload must shed, never collapse.
func TestServeOverloadReturns429(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)
	daemon, baseURL := startServeDaemon(t, bin, t.TempDir(), "-max-queue", "2")
	defer func() {
		_ = daemon.Process.Signal(syscall.SIGTERM)
		_, _ = daemon.Process.Wait()
	}()

	spec := `{"scenarios":["dense-urban"],"protocols":["RICA"],"trials":3,"duration_s":30}`
	got429 := false
	for i := 0; i < 12 && !got429; i++ {
		resp, err := http.Post(baseURL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !got429 {
		t.Fatal("queue flood never drew a 429")
	}
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under flood: %d", resp.StatusCode)
	}
}

var serveAddrRE = regexp.MustCompile(`control plane on (http://[^ ]+)`)

// startServeDaemon launches `ricasim serve` on an ephemeral port and
// returns the process and its base URL once the control plane is up.
func startServeDaemon(t *testing.T, bin, dataDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	daemon := exec.Command(bin, args...)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := serveAddrRE.FindStringSubmatch(line); m != nil {
				select {
				case urlc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case u := <-urlc:
		return daemon, u
	case <-time.After(30 * time.Second):
		_ = daemon.Process.Kill()
		t.Fatal("serve daemon never announced its address")
		return nil, ""
	}
}

// fetchResult asks for the job's export. ok is false while the daemon
// answers 409 (no result yet); any other non-200 status fails the test.
func fetchResult(t *testing.T, baseURL, id string) (body []byte, ok bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), true
}
