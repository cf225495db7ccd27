// Package serve is the self-healing simulation service: a long-lived
// daemon that accepts scenario × protocol × seed grid jobs over an
// HTTP/JSON control plane and runs each one in a supervised child
// worker process (the ricasim batch CLI itself, journaling to a
// manifest). The supervisor heals the failures a long-running service
// actually meets — crashed or kill-9'd workers are restarted and
// resume from the journal with zero recompute, hung workers are
// detected by heartbeat deadline and killed, retries back off with
// jitter, panics are quarantined — and admission control sheds load
// with 429s instead of collapsing. Because every worker attempt
// resumes the same fsync'd manifest, the exported results are
// byte-identical to an undisturbed run no matter how many times the
// worker died; the chaos test in this package holds the daemon to
// exactly that.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rica/internal/durable"
)

// Config tunes the daemon. Zero values take the defaults noted on each
// field.
type Config struct {
	// Dir is the data directory; each job lives in Dir/jobs/<id>/ with
	// its manifest journal, result export, and worker log. Required.
	Dir string
	// WorkerBin is the binary to exec as a worker (default: this
	// process's own executable, i.e. ricasim re-execs itself in batch
	// mode).
	WorkerBin string
	// WorkerCommand overrides worker construction entirely (tests).
	WorkerCommand func(*Job) *exec.Cmd
	// MaxActive is the number of jobs running at once (default 1: one
	// worker saturates the cores via the batch engine's own pool).
	MaxActive int
	// MaxQueue bounds the queued-but-not-running jobs; submissions past
	// it get 429 + Retry-After (default 16).
	MaxQueue int
	// MaxJobs bounds the job store; when full, the oldest finished job
	// is shed to admit a new one, and if nothing is sheddable the
	// submission gets 429 (default 64).
	MaxJobs int
	// MaxRestarts is the per-job crash/hang healing budget (default 10).
	MaxRestarts int
	// HungTimeout declares a worker hung when its liveness clock (any
	// stderr output, or a heartbeat whose event counter moved) stalls
	// this long (default 2m).
	HungTimeout time.Duration
	// DrainTimeout bounds how long a drained worker may take to stop,
	// journal and exit after SIGTERM before it is force-killed (default
	// 10s).
	DrainTimeout time.Duration
	// BackoffBase/BackoffMax shape the restart backoff (defaults 250ms
	// and 10s; jittered, see restartBackoff).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Logf receives daemon log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.WorkerBin == "" {
		if exe, err := os.Executable(); err == nil {
			c.WorkerBin = exe
		}
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 10
	}
	if c.HungTimeout <= 0 {
		c.HungTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the daemon: job store, admission control, and supervisor.
type Server struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // admission order; shedding walks it oldest-first
	queue  []string // FIFO of queued job IDs
	active int
	nextID int

	// ctx is the daemon's: every job's context derives from it, and
	// Shutdown cancels it with errDraining, which is how a drain reaches
	// the scheduler, a backoff wait and every running worker.
	ctx   context.Context
	drain context.CancelCauseFunc

	kick    chan struct{}
	wg      sync.WaitGroup // job runner goroutines
	schedWG sync.WaitGroup // the scheduler loop

	// Daemon counters, exposed on /metrics.
	acceptedTotal, rejectedTotal, shedTotal int64
	restartsTotal, crashesTotal, hangsTotal int64
}

// New builds a Server. Call Start to recover persisted jobs and begin
// scheduling.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		jobs: make(map[string]*Job),
		kick: make(chan struct{}, 1),
	}
	s.ctx, s.drain = context.WithCancelCause(context.Background())
	if s.cfg.WorkerCommand == nil {
		s.cfg.WorkerCommand = func(j *Job) *exec.Cmd {
			return defaultWorkerCommand(s.cfg.WorkerBin, j)
		}
	}
	return s, nil
}

// persistedJob is the job.json shape written at admission.
type persistedJob struct {
	ID      string  `json:"id"`
	Spec    JobSpec `json:"spec"`
	Total   int     `json:"total_cells"`
	Created string  `json:"created_at"`
}

// persistedState is the state.json shape written on every state
// transition after dequeue, so a restarted daemon knows which jobs are
// finished and which to resume.
type persistedState struct {
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
	Done   int    `json:"done_cells"`
}

// Start recovers persisted jobs from the data directory — terminal jobs
// reload as records, anything else re-queues and resumes from its
// manifest with zero recompute — then starts the scheduler.
func (s *Server) Start() error {
	root := filepath.Join(s.cfg.Dir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	var recovered []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, jobFile))
		if err != nil {
			s.cfg.Logf("serve: skipping %s: %v", dir, err)
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(data, &pj); err != nil || pj.ID == "" {
			s.cfg.Logf("serve: skipping %s: bad job.json", dir)
			continue
		}
		j := newJob(s.ctx, pj.ID, dir, pj.Spec, pj.Total)
		if t, err := time.Parse(time.RFC3339, pj.Created); err == nil {
			j.created = t
		}
		if data, err := os.ReadFile(filepath.Join(dir, stateFile)); err == nil {
			var ps persistedState
			if json.Unmarshal(data, &ps) == nil && ps.State.Terminal() {
				j.state = ps.State
				j.reason = ps.Reason
				j.done = ps.Done
				j.finished = j.created
				j.stop(nil) // a record, not work: nothing will cancel it
			}
		}
		recovered = append(recovered, j)
		if n := idNumber(pj.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	sort.Slice(recovered, func(a, b int) bool { return idNumber(recovered[a].ID) < idNumber(recovered[b].ID) })
	s.mu.Lock()
	for _, j := range recovered {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if !j.state.Terminal() {
			j.state = StateQueued
			j.reason = ""
			s.queue = append(s.queue, j.ID)
			s.cfg.Logf("serve: recovered %s: re-queued (manifest resume)", j.ID)
		}
	}
	s.mu.Unlock()

	s.schedWG.Add(1)
	go s.scheduler()
	s.poke()
	return nil
}

func idNumber(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// poke nudges the scheduler without blocking.
func (s *Server) poke() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// scheduler dequeues jobs into the active slots.
func (s *Server) scheduler() {
	defer s.schedWG.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			if s.ctx.Err() != nil || s.active >= s.cfg.MaxActive || len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			id := s.queue[0]
			s.queue = s.queue[1:]
			j := s.jobs[id]
			s.active++
			s.mu.Unlock()
			if j == nil {
				s.mu.Lock()
				s.active--
				s.mu.Unlock()
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.runJob(j)
			}()
		}
	}
}

// jobFinished persists the job's final state and frees its slot.
func (s *Server) jobFinished(j *Job) {
	j.stop(nil) // releases the job's context; a cause already set stays
	st := j.Snapshot()
	s.persistState(j, persistedState{State: st.State, Reason: st.Reason, Done: st.DoneCells})
	s.cfg.Logf("serve: %s %s (%d/%d cells, %d restarts)%s",
		j.ID, st.State, st.DoneCells, st.TotalCells, st.Restarts, reasonSuffix(st.Reason))
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.poke()
}

func reasonSuffix(r string) string {
	if r == "" {
		return ""
	}
	return ": " + r
}

// persistState writes state.json atomically (temp + rename + dir sync).
func (s *Server) persistState(j *Job, ps persistedState) {
	data, _ := json.Marshal(ps)
	tmp := filepath.Join(j.Dir, stateFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		s.cfg.Logf("serve: %s: persist state: %v", j.ID, err)
		return
	}
	if err := durable.Rename(tmp, filepath.Join(j.Dir, stateFile)); err != nil {
		s.cfg.Logf("serve: %s: persist state: %v", j.ID, err)
	}
}

// ErrOverloaded is returned by Submit when admission control rejects
// the job; the HTTP layer maps it to 429 + Retry-After.
type overloadError struct{ why string }

func (e overloadError) Error() string { return "serve: overloaded: " + e.why }

// IsOverload reports whether err is an admission-control rejection.
func IsOverload(err error) bool {
	_, ok := err.(overloadError)
	return ok
}

// The three causes that end a job's or an attempt's context. Submit
// also returns errDraining once Shutdown has begun.
var (
	errDraining = errors.New("serve: draining, not accepting jobs") // Shutdown
	errCanceled = errors.New("serve: job canceled")                 // DELETE /jobs/{id}
	errHung     = errors.New("serve: worker hung")                  // liveness clock stalled
)

// IsDraining reports whether err means the daemon is shutting down.
func IsDraining(err error) bool { return err == errDraining }

// Submit validates and admits a job, returning its status snapshot.
// Admission can shed the oldest finished job to bound the store; a
// full queue or an unsheddable full store rejects with an overload
// error rather than queueing without bound.
func (s *Server) Submit(spec JobSpec) (Status, error) {
	spec, total, err := spec.normalize()
	if err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		s.countReject()
		return Status{}, errDraining
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.countReject()
		return Status{}, overloadError{fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.MaxQueue)}
	}
	if len(s.jobs) >= s.cfg.MaxJobs && !s.shedOldestLocked() {
		s.mu.Unlock()
		s.countReject()
		return Status{}, overloadError{fmt.Sprintf("job store full (%d jobs, none finished)", s.cfg.MaxJobs)}
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	dir := filepath.Join(s.cfg.Dir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Status{}, err
	}
	for i, raw := range spec.Specs {
		if err := os.WriteFile(filepath.Join(dir, specFileName(i)), raw, 0o644); err != nil {
			return Status{}, err
		}
	}
	j := newJob(s.ctx, id, dir, spec, total)
	pj := persistedJob{ID: id, Spec: spec, Total: total, Created: j.created.UTC().Format(time.RFC3339)}
	data, _ := json.MarshalIndent(pj, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, jobFile), append(data, '\n'), 0o644); err != nil {
		return Status{}, err
	}
	if err := durable.SyncDir(dir); err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.acceptedTotal++
	s.mu.Unlock()
	s.cfg.Logf("serve: %s queued (%d cells)", id, total)
	s.poke()
	return j.Snapshot(), nil
}

func (s *Server) countReject() {
	s.mu.Lock()
	s.rejectedTotal++
	s.mu.Unlock()
}

// shedOldestLocked evicts the oldest terminal job (and its directory)
// to admit a new one. Caller holds s.mu.
func (s *Server) shedOldestLocked() bool {
	for i, id := range s.order {
		j := s.jobs[id]
		if j == nil || !j.State().Terminal() {
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.shedTotal++
		dir := j.Dir
		logf := s.cfg.Logf
		go func() {
			if err := os.RemoveAll(dir); err != nil {
				logf("serve: shed %s: %v", id, err)
			}
		}()
		logf("serve: shed %s to admit new work", id)
		return true
	}
	return false
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job in admission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel cancels a queued or running job. Returns false if unknown or
// already terminal.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	if !j.requestCancel() {
		return false
	}
	// A queued job has no runner to notice the cancel; finalize it here.
	s.mu.Lock()
	for i, qid := range s.queue {
		if qid == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.mu.Unlock()
			j.setState(StateCanceled, "canceled while queued")
			s.persistState(j, persistedState{State: StateCanceled, Reason: "canceled while queued"})
			return true
		}
	}
	s.mu.Unlock()
	return true
}

// Ready reports whether the daemon would accept a submission right now;
// the reason is human-readable when not.
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.ctx.Err() != nil:
		return false, "draining"
	case len(s.queue) >= s.cfg.MaxQueue:
		return false, "queue full"
	default:
		return true, "ok"
	}
}

// Shutdown drains the daemon: stop admitting, and cancel the daemon's
// context — every running worker gets SIGTERM, stops at its current
// instant, journals its finished cells and exits (a worker that outlives
// DrainTimeout is force-killed). Returns once every job runner is done:
// true if any job was left interrupted (resumable on restart) — the
// caller maps that onto the CLI's exit-code contract.
func (s *Server) Shutdown() bool {
	s.mu.Lock()
	if s.ctx.Err() == nil {
		s.drain(errDraining)
		for _, id := range s.queue {
			if j := s.jobs[id]; j != nil {
				j.setState(StateInterrupted, "daemon draining")
				s.persistState(j, persistedState{State: StateInterrupted, Reason: "daemon draining"})
			}
		}
		s.queue = nil
	}
	s.mu.Unlock()
	// The scheduler first: once it has exited, no job runner is added.
	s.schedWG.Wait()
	s.wg.Wait()
	return s.anyInterrupted()
}

func (s *Server) anyInterrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.State() == StateInterrupted {
			return true
		}
	}
	return false
}
