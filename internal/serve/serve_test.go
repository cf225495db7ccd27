package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The fake-worker harness: the test binary re-execs itself with
// RICASIM_FAKE_WORKER set and plays a scripted worker — crash mid-grid,
// hang with a frozen heartbeat, panic, drain on SIGTERM — so the
// supervisor's healing paths are exercised without simulating anything.
// The real-binary integration (chaos, byte-equality) lives in
// cmd/ricasim's tests.

func TestMain(m *testing.M) {
	if mode := os.Getenv("RICASIM_FAKE_WORKER"); mode != "" {
		os.Exit(fakeWorker(mode, os.Getenv("RICASIM_FAKE_DIR")))
	}
	os.Exit(m.Run())
}

func fakeWorker(mode, dir string) int {
	say := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	writeResult := func() {
		payload := fmt.Sprintf(`{"results":[{"scenario":"chain-10","protocol":"rica","seed":1,"mode":%q}]}`, mode)
		_ = os.WriteFile(filepath.Join(dir, workerResult), []byte(payload), 0o644)
	}
	finish := func(restored int) int {
		if restored > 0 {
			say("manifest: restored %d of 2 cells from %s", restored, filepath.Join(dir, workerManifest))
		}
		say("[2/2] chain-10/rica seed=2 delivery=99.0%%")
		writeResult()
		return 0
	}
	marker := filepath.Join(dir, "attempted")
	firstAttempt := true
	if _, err := os.Stat(marker); err == nil {
		firstAttempt = false
	} else {
		_ = os.WriteFile(marker, nil, 0o644)
	}

	switch mode {
	case "ok":
		say("stats: serving http://127.0.0.1:1/stats.json and http://127.0.0.1:1/metrics")
		say("[1/2] chain-10/rica seed=1 delivery=99.0%%")
		return finish(0)
	case "crash-then-ok":
		if firstAttempt {
			say("[1/2] chain-10/rica seed=1 delivery=99.0%%")
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable
		}
		return finish(1)
	case "hang-then-ok":
		if firstAttempt {
			// A frozen simulation with a healthy heartbeat goroutine:
			// the event counter never moves, so the supervisor must
			// declare a hang even though lines keep arriving.
			for {
				say("stats: sim=5s events=777 gen=10 dlv=9 p50=1ms queue=0")
				time.Sleep(5 * time.Millisecond)
			}
		}
		return finish(1)
	case "fail":
		say("ricasim: 2 poisoned cell(s) — quarantined, see their error/stack fields in the results")
		writeResult() // partial results are still journaled on exit 1
		return 1
	case "panic":
		say("panic: runtime error: index out of range [7] with length 5")
		say("goroutine 1 [running]:")
		return 2
	case "drain":
		if !firstAttempt {
			return finish(1) // the restarted daemon's attempt completes
		}
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM)
		go func() {
			<-sigc
			say("ricasim: interrupted — flushing partial results")
			os.Exit(3)
		}()
		say("[1/2] chain-10/rica seed=1 delivery=99.0%%")
		for i := 0; ; i++ {
			say("stats: sim=%ds events=%d gen=1 dlv=1 p50=1ms queue=0", i, 100+i)
			time.Sleep(5 * time.Millisecond)
		}
	case "block":
		// Runs (with a live heartbeat) until the release file appears.
		for i := 0; ; i++ {
			if _, err := os.Stat(filepath.Join(dir, "release")); err == nil {
				return finish(0)
			}
			say("stats: sim=%ds events=%d gen=1 dlv=1 p50=1ms queue=0", i, 100+i)
			time.Sleep(5 * time.Millisecond)
		}
	}
	say("fake worker: unknown mode %q", mode)
	return 1
}

// newTestServer builds a started server whose workers are fake workers
// in the given mode, tuned for fast tests.
func newTestServer(t *testing.T, mode string, tune func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dir:         t.TempDir(),
		MaxRestarts: 3,
		// Generous enough that a race-instrumented re-exec'd binary's
		// startup latency is never mistaken for a hang.
		HungTimeout: 2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Logf:        t.Logf,
		WorkerCommand: func(j *Job) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				"RICASIM_FAKE_WORKER="+mode,
				"RICASIM_FAKE_DIR="+j.Dir)
			return cmd
		},
	}
	if tune != nil {
		tune(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func submitJob(t *testing.T, s *Server) Status {
	t.Helper()
	st, err := s.Submit(JobSpec{Scenarios: []string{"chain-10"}, Trials: 2, Protocols: []string{"RICA"}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a job until it reaches want or the deadline passes.
func waitState(t *testing.T, s *Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st := j.Snapshot()
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s), want %s", id, st.State, st.Reason, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobSpecValidation(t *testing.T) {
	cases := map[string]JobSpec{
		"empty":            {},
		"unknown scenario": {Scenarios: []string{"no-such-place"}},
		"unknown protocol": {Scenarios: []string{"chain-10"}, Protocols: []string{"ospf"}},
		"comma in name":    {Scenarios: []string{"chain-10,grid-8x8"}},
		"negative trials":  {Scenarios: []string{"chain-10"}, Trials: -1},
		"huge trials":      {Scenarios: []string{"chain-10"}, Trials: maxJobTrials + 1},
		"bad inline spec":  {Specs: []json.RawMessage{json.RawMessage(`{"name":""}`)}},
	}
	for name, spec := range cases {
		if _, _, err := spec.normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	spec, total, err := JobSpec{Scenarios: []string{"chain-10", "grid-8x8"}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trials != 3 || spec.Seed != 1 {
		t.Errorf("defaults not applied: trials=%d seed=%d", spec.Trials, spec.Seed)
	}
	if want := 2 * 5 * 3; total != want { // 2 scenarios × all 5 protocols × 3 trials
		t.Errorf("total = %d, want %d", total, want)
	}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	s := newTestServer(t, "ok", nil)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"scenarios":["chain-10"],"protocols":["RICA"],"trials":2}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code %d, status %+v", resp.StatusCode, st)
	}

	final := waitState(t, s, st.ID, StateDone)
	if final.DoneCells != 2 {
		t.Errorf("done cells = %d, want 2", final.DoneCells)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(s.cfg.Dir, "jobs", st.ID, workerResult))
	var got bytes.Buffer
	_, _ = got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("result fetch: code %d, %d bytes vs %d on disk", resp.StatusCode, got.Len(), len(data))
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := got.String()
	got.Reset()
	_, _ = got.ReadFrom(resp.Body)
	resp.Body.Close()
	events = got.String()
	for _, want := range []string{`"queued"`, `"started"`, `"progress"`, `"done"`} {
		if !strings.Contains(events, want) {
			t.Errorf("event stream missing %s:\n%s", want, events)
		}
	}

	// Bad submissions are 400, not accepted.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"scenarios":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: code %d, want 400", resp.StatusCode)
	}
}

// TestCrashHealing: a worker SIGKILL'd mid-grid is restarted and the
// retry resumes from the journal (the fake worker reports a restore).
func TestCrashHealing(t *testing.T) {
	s := newTestServer(t, "crash-then-ok", nil)
	defer s.Shutdown()
	st := submitJob(t, s)
	final := waitState(t, s, st.ID, StateDone)
	if final.Restarts != 1 || final.Attempts != 2 {
		t.Errorf("restarts=%d attempts=%d, want 1 and 2", final.Restarts, final.Attempts)
	}
	if final.Restored != 1 {
		t.Errorf("restored=%d, want 1 (journal resume)", final.Restored)
	}
}

// TestHangHealing: a worker whose heartbeat freezes (event counter
// stops moving, lines keep flowing) is killed and retried.
func TestHangHealing(t *testing.T) {
	s := newTestServer(t, "hang-then-ok", nil)
	defer s.Shutdown()
	st := submitJob(t, s)
	final := waitState(t, s, st.ID, StateDone)
	if final.Restarts != 1 {
		t.Errorf("restarts=%d, want 1", final.Restarts)
	}
	j, _ := s.Job(st.ID)
	events, _ := j.events.since(0)
	var hung bool
	for _, e := range events {
		hung = hung || e.Type == "hung"
	}
	if !hung {
		t.Error("no hung event recorded")
	}
}

// TestPanicQuarantined: exit code 2 is never retried.
func TestPanicQuarantined(t *testing.T) {
	s := newTestServer(t, "panic", nil)
	defer s.Shutdown()
	st := submitJob(t, s)
	final := waitState(t, s, st.ID, StateFailed)
	if final.Attempts != 1 || final.Restarts != 0 {
		t.Errorf("attempts=%d restarts=%d, want 1 and 0 (panics are not retried)", final.Attempts, final.Restarts)
	}
	if !strings.Contains(final.Reason, "panic") {
		t.Errorf("reason %q does not mention the panic", final.Reason)
	}
}

// TestCleanFailureNotRetried: exit code 1 (poisoned cells) is a
// permanent verdict, and the partial result stays fetchable.
func TestCleanFailureNotRetried(t *testing.T) {
	s := newTestServer(t, "fail", nil)
	defer s.Shutdown()
	st := submitJob(t, s)
	final := waitState(t, s, st.ID, StateFailed)
	if final.Attempts != 1 {
		t.Errorf("attempts=%d, want 1", final.Attempts)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.Dir, "jobs", st.ID, workerResult)); err != nil {
		t.Errorf("partial result missing: %v", err)
	}
}

// TestRestartBudget: endless crashing exhausts MaxRestarts and fails.
func TestRestartBudget(t *testing.T) {
	s := newTestServer(t, "panic", func(c *Config) {
		c.MaxRestarts = 2
		// Reuse the crash worker but delete its marker so every attempt
		// crashes; simplest is a command that always kills itself.
		c.WorkerCommand = func(j *Job) *exec.Cmd {
			_ = os.Remove(filepath.Join(j.Dir, "attempted"))
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				"RICASIM_FAKE_WORKER=crash-then-ok",
				"RICASIM_FAKE_DIR="+j.Dir)
			return cmd
		}
	})
	defer s.Shutdown()
	st := submitJob(t, s)
	final := waitState(t, s, st.ID, StateFailed)
	if final.Restarts != 2 {
		t.Errorf("restarts=%d, want 2 (the budget)", final.Restarts)
	}
	if !strings.Contains(final.Reason, "budget") {
		t.Errorf("reason %q does not mention the budget", final.Reason)
	}
}

// TestResultOnlyFromTerminalJob: while the worker runs, whatever sits at
// the result path (here a leftover, as an attempt that was killed after
// writing would leave) is not the job's result and must draw 409; once
// the job is done the worker's own bytes are served.
func TestResultOnlyFromTerminalJob(t *testing.T) {
	s := newTestServer(t, "block", func(c *Config) { c.HungTimeout = 10 * time.Second })
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submitJob(t, s)
	waitState(t, s, st.ID, StateRunning)
	j, _ := s.Job(st.ID)
	if err := os.WriteFile(filepath.Join(j.Dir, workerResult), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: code %d, want 409", resp.StatusCode)
	}

	_ = os.WriteFile(filepath.Join(j.Dir, "release"), nil, 0o644)
	waitState(t, s, st.ID, StateDone)
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct{ Results []json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&got); resp.StatusCode != http.StatusOK || err != nil || len(got.Results) != 1 {
		t.Fatalf("result of a done job: code %d, decode err %v, %d rows", resp.StatusCode, err, len(got.Results))
	}
}

// TestAdmissionControl floods the queue and asserts 429 + Retry-After
// rather than unbounded queueing, with /readyz flipping to 503.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, "block", func(c *Config) {
		c.MaxActive = 1
		c.MaxQueue = 2
		c.HungTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First job must be dequeued (running) before the queue is flooded,
	// or the flood itself would race the scheduler for the two slots.
	var ids []string
	st := submitJob(t, s)
	ids = append(ids, st.ID)
	waitState(t, s, st.ID, StateRunning)
	for i := 0; i < 2; i++ { // fill MaxQueue
		st := submitJob(t, s)
		ids = append(ids, st.ID)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenarios":["chain-10"],"protocols":["RICA"],"trials":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded submit: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while flooded: code %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: code %d, want 200 (liveness is not load-dependent)", resp.StatusCode)
	}

	// Release the workers; the backlog drains and readiness returns.
	for _, id := range ids {
		j, _ := s.Job(id)
		_ = os.WriteFile(filepath.Join(j.Dir, "release"), nil, 0o644)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	if ready, why := s.Ready(); !ready {
		t.Errorf("not ready after drain: %s", why)
	}
	s.Shutdown()
}

// TestShedOldest: a full job store sheds the oldest finished job to
// admit new work, and refuses when nothing is sheddable.
func TestShedOldest(t *testing.T) {
	s := newTestServer(t, "ok", func(c *Config) { c.MaxJobs = 2; c.MaxQueue = 8 })
	defer s.Shutdown()
	first := submitJob(t, s)
	waitState(t, s, first.ID, StateDone)
	second := submitJob(t, s)
	waitState(t, s, second.ID, StateDone)

	third := submitJob(t, s) // store full: the oldest done job is shed
	if _, ok := s.Job(first.ID); ok {
		t.Errorf("oldest job %s not shed", first.ID)
	}
	waitState(t, s, third.ID, StateDone)
}

func TestCancel(t *testing.T) {
	s := newTestServer(t, "block", func(c *Config) {
		c.MaxActive = 1
		c.HungTimeout = 10 * time.Second
	})
	defer s.Shutdown()
	running := submitJob(t, s)
	queued := submitJob(t, s)
	waitState(t, s, running.ID, StateRunning)

	if !s.Cancel(queued.ID) {
		t.Fatal("cancel queued job refused")
	}
	if st := waitState(t, s, queued.ID, StateCanceled); st.Attempts != 0 {
		t.Errorf("queued cancel ran %d attempts", st.Attempts)
	}
	if !s.Cancel(running.ID) {
		t.Fatal("cancel running job refused")
	}
	waitState(t, s, running.ID, StateCanceled)
	if s.Cancel(running.ID) {
		t.Error("cancel of a terminal job accepted")
	}
}

// TestDrainAndRecover: SIGTERM-equivalent drain interrupts a running
// job (the worker journals and exits 3); a new daemon over the same
// data directory re-queues it and finishes it.
func TestDrainAndRecover(t *testing.T) {
	dir := ""
	s := newTestServer(t, "drain", func(c *Config) {
		c.HungTimeout = 10 * time.Second
		c.DrainTimeout = 5 * time.Second
		dir = c.Dir
	})
	st := submitJob(t, s)
	// Wait for worker-reported progress, not just the running state: the
	// drain must land after the worker has installed its signal handler,
	// which its first progress line proves.
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, _ := s.Job(st.ID)
		if j != nil && j.Snapshot().DoneCells >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never reported progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s.Shutdown() {
		t.Fatal("Shutdown reported nothing interrupted")
	}
	j, _ := s.Job(st.ID)
	if got := j.State(); got != StateInterrupted {
		t.Fatalf("after drain: state %s, want interrupted", got)
	}

	// Second daemon, same data dir: the job must come back queued and
	// run to done (the fake worker's marker makes attempt two finish).
	s2 := newTestServer(t, "drain", func(c *Config) { c.Dir = dir })
	defer s2.Shutdown()
	final := waitState(t, s2, st.ID, StateDone)
	if final.TotalCells != st.TotalCells {
		t.Errorf("recovered total=%d, want %d", final.TotalCells, st.TotalCells)
	}
}

// TestRecoverySkipsTerminal: finished jobs reload as records, not work.
func TestRecoverySkipsTerminal(t *testing.T) {
	dir := ""
	s := newTestServer(t, "ok", func(c *Config) { dir = c.Dir })
	st := submitJob(t, s)
	waitState(t, s, st.ID, StateDone)
	s.Shutdown()

	s2 := newTestServer(t, "panic", func(c *Config) { c.Dir = dir })
	defer s2.Shutdown()
	j, ok := s2.Job(st.ID)
	if !ok {
		t.Fatal("done job not recovered")
	}
	if got := j.State(); got != StateDone {
		t.Fatalf("recovered state %s, want done (must not re-run)", got)
	}
}

func TestRestartBackoffShape(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for n := 0; n < 40; n++ {
		nominal := max
		if n < 34 {
			if d := base << n; d < nominal {
				nominal = d
			}
		}
		for i := 0; i < 50; i++ {
			d := restartBackoff(n, base, max)
			if d < nominal/2 || d >= nominal {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", n, d, nominal/2, nominal)
			}
		}
	}
}

// TestWorkerLineParsing pins the stderr protocol the supervisor reads.
func TestWorkerLineParsing(t *testing.T) {
	cases := []struct {
		line string
		want workerLine
	}{
		{"[3/30] chain-10/rica seed=4 delivery=98.5%", workerLine{kind: "progress", done: 3, total: 30}},
		{"manifest: restored 12 of 30 cells from /tmp/m", workerLine{kind: "restored", restored: 12, total: 30}},
		{"stats: serving http://127.0.0.1:4311/stats.json and http://127.0.0.1:4311/metrics", workerLine{kind: "statsurl", statsURL: "http://127.0.0.1:4311"}},
		{"stats: sim=12s events=48211 gen=1200 dlv=1100 p50=80ms queue=3", workerLine{kind: "heartbeat", events: 48211}},
		{"ricasim: interrupt — stopping at the current instant and flushing output; interrupt again to force exit", workerLine{kind: "other"}},
		{"wrote /tmp/result.json", workerLine{kind: "other"}},
	}
	for _, c := range cases {
		if got := parseWorkerLine(c.line); got != c.want {
			t.Errorf("parse(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}
