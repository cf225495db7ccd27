package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Attempt outcomes. The supervisor's healing policy hangs off this
// classification: crashes and hangs are transient (the manifest journal
// makes a retry resume instead of recompute), panics and clean failures
// are permanent, and interrupts are only legitimate when we asked for
// them — an exit-code-3 without a cause on the attempt's context means
// someone signalled the worker externally, which is the chaos-test case,
// and is healed like a crash.
type outcome int

const (
	outcomeDone outcome = iota
	outcomeFailed
	outcomePanic
	outcomeCrash
	outcomeHung
	outcomeCanceled
	outcomeInterrupted
)

// Worker exit codes, per the CLI contract (docs/OPERATIONS.md): 0
// success, 1 error or poisoned cells, 2 Go panic, 3 interrupted with
// resumable journal, 130 forced second interrupt.
const (
	workerExitOK          = 0
	workerExitError       = 1
	workerExitPanic       = 2
	workerExitInterrupted = 3
	workerExitForced      = 130
)

// runJob drives one job to a terminal-or-interrupted state: run an
// attempt, classify, heal or stop. It owns the job's state transitions
// after dequeue.
func (s *Server) runJob(j *Job) {
	defer s.jobFinished(j)
	for {
		switch context.Cause(j.ctx) {
		case errCanceled:
			j.setState(StateCanceled, "canceled before start")
			return
		case errDraining:
			j.setState(StateInterrupted, "daemon draining")
			return
		}
		j.mu.Lock()
		j.attempts++
		attempt := j.attempts
		restarts := j.restarts
		j.mu.Unlock()
		if attempt == 1 {
			j.setState(StateRunning, "")
		}

		switch out, detail := s.runAttempt(j); out {
		case outcomeDone:
			j.setState(StateDone, "")
			return
		case outcomeFailed:
			j.setState(StateFailed, detail)
			return
		case outcomePanic:
			// A panic is deterministic under a deterministic engine:
			// retrying replays the same crash. Quarantine instead.
			j.setState(StateFailed, "worker panicked (never retried): "+detail)
			return
		case outcomeCanceled:
			j.setState(StateCanceled, detail)
			return
		case outcomeInterrupted:
			j.setState(StateInterrupted, detail)
			return
		case outcomeCrash, outcomeHung:
			if restarts >= s.cfg.MaxRestarts {
				j.setState(StateFailed, fmt.Sprintf("restart budget (%d) exhausted after: %s", s.cfg.MaxRestarts, detail))
				return
			}
			j.mu.Lock()
			j.restarts++
			n := j.restarts
			j.mu.Unlock()
			atomic.AddInt64(&s.restartsTotal, 1)
			delay := restartBackoff(n-1, s.cfg.BackoffBase, s.cfg.BackoffMax)
			j.events.append(Event{Type: "restart", Note: fmt.Sprintf("%s; retry %d in %v", detail, n, delay.Round(time.Millisecond))})
			select {
			case <-time.After(delay):
			case <-j.ctx.Done(): // the loop head says why
			}
		}
	}
}

// restartBackoff is equal-jitter exponential backoff: nominal doubles
// from base up to max, the delay lands uniformly in [nominal/2,
// nominal) so simultaneous restarts do not stampede.
func restartBackoff(n int, base, max time.Duration) time.Duration {
	nominal := max
	if n < 34 {
		if d := base << n; d < nominal {
			nominal = d
		}
	}
	half := nominal / 2
	if half <= 0 {
		return nominal
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// runAttempt launches one worker process for the job and supervises it
// to exit: parse stderr for progress and liveness, detect hangs by
// heartbeat deadline, and classify the exit. The attempt's context ends
// it: a cancel or a drain reaches it from the job's context, a stalled
// liveness clock cancels it with errHung, and either way the cause
// signals the worker (see signalWorker) and names the outcome.
func (s *Server) runAttempt(j *Job) (outcome, string) {
	ctx, end := context.WithCancelCause(j.ctx)
	defer end(nil)
	cmd := s.cfg.WorkerCommand(j)
	setProcessGroup(cmd)

	logf, err := os.OpenFile(filepath.Join(j.Dir, workerLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return outcomeFailed, "worker log: " + err.Error()
	}
	defer logf.Close()

	stderr, err := cmd.StderrPipe()
	if err != nil {
		return outcomeFailed, "stderr pipe: " + err.Error()
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		return outcomeCrash, "start: " + err.Error()
	}
	pid := cmd.Process.Pid
	fmt.Fprintf(logf, "--- attempt pid=%d ---\n", pid)
	j.mu.Lock()
	j.workerPID = pid
	j.mu.Unlock()

	exited := make(chan struct{})
	defer context.AfterFunc(ctx, func() { s.signalWorker(cmd, context.Cause(ctx), exited) })()

	// lastLive is the supervisor's liveness clock (unix nanos). Any
	// stderr line advances it except a heartbeat whose cumulative event
	// count has not moved: a wedged simulation with a healthy heartbeat
	// goroutine must still be declared hung.
	var lastLive atomic.Int64
	lastLive.Store(time.Now().UnixNano())
	var lastEvents atomic.Int64
	lastEvents.Store(-1)

	// Hang monitor: if the liveness clock stalls past HungTimeout while
	// nothing else is ending the attempt, end it with errHung.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		tick := s.cfg.HungTimeout / 8
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		for {
			select {
			case <-exited:
				return
			case <-ctx.Done():
				return
			case <-time.After(tick):
			}
			idle := time.Duration(time.Now().UnixNano() - lastLive.Load())
			if idle >= s.cfg.HungTimeout {
				end(errHung)
				return
			}
		}
	}()

	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logf, line)
		w := parseWorkerLine(line)
		switch w.kind {
		case "heartbeat":
			if w.events != lastEvents.Swap(w.events) {
				lastLive.Store(time.Now().UnixNano())
			}
			continue
		case "progress":
			j.mu.Lock()
			j.done = w.done
			if w.total > 0 {
				j.total = w.total
			}
			done, total := j.done, j.total
			j.mu.Unlock()
			j.events.append(Event{Type: "progress", Done: done, Total: total})
		case "restored":
			j.mu.Lock()
			j.restored = w.restored
			if w.total > 0 {
				j.total = w.total
			}
			j.done = w.restored
			j.mu.Unlock()
			j.events.append(Event{Type: "restored", Done: w.restored, Total: w.total,
				Note: fmt.Sprintf("resumed %d finished cells from the journal", w.restored)})
		case "statsurl":
			j.mu.Lock()
			j.statsURL = w.statsURL
			j.mu.Unlock()
		}
		lastLive.Store(time.Now().UnixNano())
	}

	waitErr := cmd.Wait()
	close(exited)
	<-monitorDone
	j.mu.Lock()
	j.workerPID = 0
	j.statsURL = ""
	j.mu.Unlock()

	return s.classifyExit(j, waitErr, context.Cause(ctx))
}

// signalWorker is how the end of an attempt reaches its worker. A drain
// asks: SIGTERM, on which the worker stops at its current instant,
// journals its finished cells and exits 3 — and one still running
// DrainTimeout later is killed. A cancel or a hang kills the process
// group outright: a hung worker may not honour SIGTERM, and a canceled
// job's journal is not wanted.
func (s *Server) signalWorker(cmd *exec.Cmd, cause error, exited <-chan struct{}) {
	if cause != errDraining {
		signalProcess(cmd, true)
		return
	}
	signalProcess(cmd, false)
	select {
	case <-exited:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logf("serve: drain timeout; force-killing worker pid %d", cmd.Process.Pid)
		signalProcess(cmd, true)
	}
}

// classifyExit maps a worker's exit status, and the cause that ended
// its attempt (nil when the worker exited on its own), onto the healing
// policy.
func (s *Server) classifyExit(j *Job, waitErr error, cause error) (outcome, string) {
	code, signaled := exitStatus(waitErr)
	note := fmt.Sprintf("worker exit code %d", code)
	if signaled {
		note = "worker killed by signal"
	}
	j.events.append(Event{Type: "worker-exit", Note: note})

	switch cause {
	case errHung:
		atomic.AddInt64(&s.hangsTotal, 1)
		j.events.append(Event{Type: "hung", Note: fmt.Sprintf("no liveness for %v; process group killed", s.cfg.HungTimeout)})
		return outcomeHung, "worker hung (heartbeat deadline exceeded)"
	case errCanceled:
		return outcomeCanceled, "canceled"
	case errDraining:
		// The worker stops at its current instant, journals and exits 3
		// per the contract; any exit at this point counts.
		return outcomeInterrupted, "daemon draining (worker journaled its finished cells)"
	}

	switch {
	case waitErr == nil:
		// The worker renames its result into place only once it is
		// fully written and fsynced (ricasim -out), so a file at this
		// path is a complete one.
		if _, err := os.Stat(filepath.Join(j.Dir, workerResult)); err != nil {
			return outcomeCrash, "worker exited 0 without writing " + workerResult
		}
		return outcomeDone, ""
	case signaled:
		// kill -9 from outside (or the chaos test). Heal: the manifest
		// journal turns the retry into a resume.
		atomic.AddInt64(&s.crashesTotal, 1)
		return outcomeCrash, "worker killed by signal"
	case code == workerExitPanic:
		return outcomePanic, tailOf(filepath.Join(j.Dir, workerLogFile), 4)
	case code == workerExitError:
		return outcomeFailed, "worker exited 1 (error or poisoned cells); partial results may be journaled"
	case code == workerExitInterrupted, code == workerExitForced:
		// Someone else signalled it; the journal is intact, so heal.
		atomic.AddInt64(&s.crashesTotal, 1)
		return outcomeCrash, fmt.Sprintf("worker interrupted externally (exit %d)", code)
	default:
		atomic.AddInt64(&s.crashesTotal, 1)
		return outcomeCrash, fmt.Sprintf("worker exited %d", code)
	}
}

// exitStatus extracts (code, killed-by-signal) from cmd.Wait's error.
func exitStatus(err error) (int, bool) {
	if err == nil {
		return 0, false
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if code := ee.ExitCode(); code >= 0 {
			return code, false
		}
		return -1, true
	}
	return -1, true
}

// tailOf returns the last n lines of a file, best effort, for panic
// diagnostics in job status.
func tailOf(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "worker panicked"
	}
	lines := splitTail(string(data), n)
	return "worker panicked: " + lines
}

func splitTail(s string, n int) string {
	end := len(s)
	for end > 0 && (s[end-1] == '\n' || s[end-1] == '\r') {
		end--
	}
	start := end
	for i := 0; i < n && start > 0; i++ {
		j := start - 1
		for j > 0 && s[j-1] != '\n' {
			j--
		}
		start = j
		if start == 0 {
			break
		}
	}
	return s[start:end]
}
