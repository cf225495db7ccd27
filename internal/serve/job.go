package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
)

// JobSpec is the grid a client submits: the same scenario × protocol ×
// seed space the batch CLI spans, JSON-shaped for the control plane.
type JobSpec struct {
	// Scenarios names built-in catalog entries.
	Scenarios []string `json:"scenarios,omitempty"`
	// Specs carries inline scenario specs (the same JSON the CLI loads
	// from files); they are validated at admission and written into the
	// job directory for the worker.
	Specs []json.RawMessage `json:"specs,omitempty"`
	// Protocols subsets the protocol comparison; empty means all five.
	Protocols []string `json:"protocols,omitempty"`
	// Trials is the seeds-per-cell count; 0 means 3.
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed; 0 means 1 (matching the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// DurationS overrides every scenario's horizon, in simulated seconds.
	DurationS float64 `json:"duration_s,omitempty"`
}

// jobSpecLimits bound what one job may ask for; admission rejects
// anything larger with a 400 rather than letting a typo queue a
// year-long grid.
const (
	maxJobScenarios = 64
	maxJobTrials    = 1000
)

// normalize validates the spec and fills defaults, returning the
// per-cell totals the supervisor needs. The returned spec is what the
// job persists and the worker runs.
func (s JobSpec) normalize() (JobSpec, int, error) {
	if len(s.Scenarios)+len(s.Specs) == 0 {
		return s, 0, fmt.Errorf("job needs at least one scenario (names in 'scenarios', inline specs in 'specs')")
	}
	if len(s.Scenarios)+len(s.Specs) > maxJobScenarios {
		return s, 0, fmt.Errorf("job spans %d scenarios, max %d", len(s.Scenarios)+len(s.Specs), maxJobScenarios)
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	if s.Trials < 0 || s.Trials > maxJobTrials {
		return s, 0, fmt.Errorf("trials %d outside [1, %d]", s.Trials, maxJobTrials)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DurationS < 0 {
		return s, 0, fmt.Errorf("duration_s %g is negative", s.DurationS)
	}
	if d := time.Duration(s.DurationS * float64(time.Second)); scenario.Duration(d) > scenario.MaxDuration {
		return s, 0, fmt.Errorf("duration_s %g exceeds the %v bound", s.DurationS, time.Duration(scenario.MaxDuration))
	}
	for _, name := range s.Scenarios {
		// Names travel to the worker on a comma-separated flag, and a
		// ".json" suffix would be read as a file path there.
		if strings.ContainsAny(name, ", \t\n") || strings.HasSuffix(name, ".json") {
			return s, 0, fmt.Errorf("scenario name %q is not a catalog name", name)
		}
		if _, err := scenario.ByName(name); err != nil {
			return s, 0, err
		}
	}
	for i, raw := range s.Specs {
		if _, err := scenario.ParseJSON(raw); err != nil {
			return s, 0, fmt.Errorf("specs[%d]: %w", i, err)
		}
	}
	protocols := len(s.Protocols)
	if protocols == 0 {
		protocols = len(protocol.AllProtocols())
	}
	for _, p := range s.Protocols {
		if _, err := protocol.ParseProtocol(p); err != nil {
			return s, 0, err
		}
	}
	total := (len(s.Scenarios) + len(s.Specs)) * protocols * s.Trials
	return s, total, nil
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	// StateInterrupted marks a job the daemon drained mid-run (SIGTERM):
	// its finished cells are journaled, and a restarted daemon re-queues
	// it to resume with zero recompute. Not terminal.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final for this daemon process.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one line of a job's JSONL event stream.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // queued started progress restored restart hung worker-exit done failed canceled interrupted
	At    string `json:"at"`   // wall clock, RFC3339
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Note  string `json:"note,omitempty"`
}

// Status is the API view of one job.
type Status struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	Reason     string  `json:"reason,omitempty"`
	CreatedAt  string  `json:"created_at"`
	StartedAt  string  `json:"started_at,omitempty"`
	FinishedAt string  `json:"finished_at,omitempty"`
	Attempts   int     `json:"attempts"`
	Restarts   int     `json:"restarts"`
	Restored   int     `json:"restored"`
	DoneCells  int     `json:"done_cells"`
	TotalCells int     `json:"total_cells"`
	WorkerPID  int     `json:"worker_pid,omitempty"`
	Spec       JobSpec `json:"spec"`
}

// Job is one submitted grid and its supervision state. All mutable
// fields are guarded by mu; the identity fields are immutable after
// admission.
type Job struct {
	ID   string
	Spec JobSpec
	Dir  string

	mu        sync.Mutex
	state     State
	reason    string
	created   time.Time
	started   time.Time
	finished  time.Time
	attempts  int
	restarts  int
	restored  int
	done      int
	total     int
	workerPID int
	statsURL  string // worker's live-stats base URL, when it told us

	// ctx ends with the job: canceled with errCanceled by DELETE, or with
	// the daemon's errDraining. Each worker attempt runs under a child of
	// it, so either cause reaches the running worker.
	ctx  context.Context
	stop context.CancelCauseFunc

	events eventLog
}

func newJob(parent context.Context, id, dir string, spec JobSpec, total int) *Job {
	j := &Job{ID: id, Spec: spec, Dir: dir, state: StateQueued, total: total, created: time.Now()}
	j.ctx, j.stop = context.WithCancelCause(parent)
	j.events.append(Event{Type: "queued", Total: total})
	return j
}

// Snapshot renders the API status view.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.ID,
		State:      j.state,
		Reason:     j.reason,
		CreatedAt:  j.created.UTC().Format(time.RFC3339),
		Attempts:   j.attempts,
		Restarts:   j.restarts,
		Restored:   j.restored,
		DoneCells:  j.done,
		TotalCells: j.total,
		Spec:       j.Spec,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	if j.state == StateRunning {
		st.WorkerPID = j.workerPID
	}
	return st
}

// setState moves the job and appends the transition event.
func (j *Job) setState(s State, reason string) {
	j.mu.Lock()
	j.state = s
	j.reason = reason
	switch s {
	case StateRunning:
		if j.started.IsZero() {
			j.started = time.Now()
		}
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		j.finished = time.Now()
		j.workerPID = 0
		j.statsURL = ""
	}
	done, total := j.done, j.total
	j.mu.Unlock()
	typ := map[State]string{
		StateRunning: "started", StateDone: "done", StateFailed: "failed",
		StateCanceled: "canceled", StateInterrupted: "interrupted", StateQueued: "queued",
	}[s]
	j.events.append(Event{Type: typ, Note: reason, Done: done, Total: total})
}

// requestCancel cancels the job's context with errCanceled, which kills
// a running worker. Returns false if the job is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.stop(errCanceled)
	return true
}

// State reads the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// eventLog is an append-only in-memory event sequence with a broadcast
// channel that streaming readers wait on.
type eventLog struct {
	mu      sync.Mutex
	events  []Event
	changed chan struct{}
}

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	e.Seq = len(l.events)
	e.At = time.Now().UTC().Format(time.RFC3339)
	l.events = append(l.events, e)
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
	l.mu.Unlock()
}

// since returns the events from seq n on, plus a channel that closes
// when anything later is appended.
func (l *eventLog) since(n int) ([]Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	if n < len(l.events) {
		out = append(out, l.events[n:]...)
	}
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return out, l.changed
}
