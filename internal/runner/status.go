package runner

import (
	"sync"
	"time"
)

// StatusBoard tracks live suite and per-experiment job progress for the
// introspection plane: the runner updates it as jobs complete and the
// /runs HTTP endpoint (internal/obs/obshttp) serves its Snapshot. All
// methods are safe for concurrent use, and a nil *StatusBoard is a valid
// no-op — call sites never need to branch.
type StatusBoard struct {
	mu      sync.Mutex
	started time.Time
	running bool
	total   int
	done    int
	failed  int
	order   []string
	exps    map[string]*expState
	last    *JobStatus
}

// expState is one experiment's mutable progress.
type expState struct {
	total  int
	done   int
	failed int
	state  string // "pending" | "running" | "ok" | "error"
	err    string
}

// NewStatusBoard creates an empty board.
func NewStatusBoard() *StatusBoard {
	return &StatusBoard{exps: make(map[string]*expState)}
}

// SuiteStarted registers the suite's experiments and their job counts
// (parallel slices) and stamps the start time.
func (b *StatusBoard) SuiteStarted(ids []string, jobs []int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.started = time.Now()
	b.running = true
	for i, id := range ids {
		e := b.exp(id)
		e.total = jobs[i]
		if e.total == 0 {
			// Job-less experiments (static tables) assemble instantly.
			e.state = "running"
		}
		b.total += jobs[i]
	}
}

// exp returns (creating if needed) the state for id. Caller holds b.mu.
func (b *StatusBoard) exp(id string) *expState {
	e := b.exps[id]
	if e == nil {
		e = &expState{state: "pending"}
		b.exps[id] = e
		b.order = append(b.order, id)
	}
	return e
}

// JobFinished folds one completed job into the board.
func (b *StatusBoard) JobFinished(r Result) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.exp(r.Experiment)
	e.done++
	b.done++
	if r.Status != StatusOK {
		e.failed++
		b.failed++
	}
	if e.state == "pending" {
		e.state = "running"
	}
	b.last = &JobStatus{
		ID: r.JobID, Experiment: r.Experiment, Status: r.Status,
		WallMS: float64(r.Wall.Microseconds()) / 1e3,
	}
}

// ExperimentFinished records an experiment's final outcome after assembly.
func (b *StatusBoard) ExperimentFinished(id string, err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.exp(id)
	if err != nil {
		e.state = "error"
		e.err = err.Error()
	} else {
		e.state = "ok"
	}
}

// SuiteFinished marks the suite as no longer running.
func (b *StatusBoard) SuiteFinished() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.running = false
}

// JobStatus is one job outcome in a snapshot.
type JobStatus struct {
	ID         string  `json:"id"`
	Experiment string  `json:"experiment"`
	Status     Status  `json:"status"`
	WallMS     float64 `json:"wall_ms"`
}

// ExperimentStatus is one experiment's progress in a snapshot.
type ExperimentStatus struct {
	ID         string `json:"id"`
	TotalJobs  int    `json:"total_jobs"`
	DoneJobs   int    `json:"done_jobs"`
	FailedJobs int    `json:"failed_jobs"`
	// State is "pending", "running", "ok" or "error".
	State string `json:"state"`
	Err   string `json:"error,omitempty"`
}

// StatusSnapshot is the /runs JSON schema: the whole suite's live state.
type StatusSnapshot struct {
	Running     bool               `json:"running"`
	StartedAt   time.Time          `json:"started_at"`
	ElapsedS    float64            `json:"elapsed_s"`
	TotalJobs   int                `json:"total_jobs"`
	DoneJobs    int                `json:"done_jobs"`
	FailedJobs  int                `json:"failed_jobs"`
	Experiments []ExperimentStatus `json:"experiments"`
	LastJob     *JobStatus         `json:"last_job,omitempty"`
}

// Snapshot copies the board's current state. A nil board snapshots to the
// zero value.
func (b *StatusBoard) Snapshot() StatusSnapshot {
	if b == nil {
		return StatusSnapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := StatusSnapshot{
		Running:    b.running,
		StartedAt:  b.started,
		TotalJobs:  b.total,
		DoneJobs:   b.done,
		FailedJobs: b.failed,
	}
	if !b.started.IsZero() {
		s.ElapsedS = time.Since(b.started).Seconds()
	}
	for _, id := range b.order {
		e := b.exps[id]
		s.Experiments = append(s.Experiments, ExperimentStatus{
			ID: id, TotalJobs: e.total, DoneJobs: e.done,
			FailedJobs: e.failed, State: e.state, Err: e.err,
		})
	}
	if b.last != nil {
		last := *b.last
		s.LastJob = &last
	}
	return s
}
