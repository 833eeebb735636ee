package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// TestStatusBoardLifecycle walks a board through a small suite and checks
// every state transition the /runs endpoint exposes.
func TestStatusBoardLifecycle(t *testing.T) {
	b := NewStatusBoard()
	if s := b.Snapshot(); s.Running || s.TotalJobs != 0 {
		t.Fatalf("fresh board: %+v", s)
	}

	b.SuiteStarted([]string{"overhead", "tables"}, []int{3, 0})
	s := b.Snapshot()
	if !s.Running || s.TotalJobs != 3 {
		t.Fatalf("after start: %+v", s)
	}
	if s.Experiments[0].State != "pending" || s.Experiments[1].State != "running" {
		t.Fatalf("initial states: %+v", s.Experiments)
	}

	b.JobFinished(Result{JobID: "overhead/0", Experiment: "overhead", Status: StatusOK, Wall: 20 * time.Millisecond})
	b.JobFinished(Result{JobID: "overhead/1", Experiment: "overhead", Status: StatusFailed, Wall: 5 * time.Millisecond})
	s = b.Snapshot()
	if s.DoneJobs != 2 || s.FailedJobs != 1 {
		t.Fatalf("after jobs: %+v", s)
	}
	if e := s.Experiments[0]; e.State != "running" || e.DoneJobs != 2 || e.FailedJobs != 1 {
		t.Fatalf("overhead state: %+v", e)
	}
	if s.LastJob == nil || s.LastJob.ID != "overhead/1" || s.LastJob.WallMS != 5 {
		t.Fatalf("last job: %+v", s.LastJob)
	}

	b.ExperimentFinished("overhead", nil)
	b.ExperimentFinished("tables", errors.New("assembly failed"))
	b.SuiteFinished()
	s = b.Snapshot()
	if s.Running {
		t.Error("suite still running after SuiteFinished")
	}
	if s.Experiments[0].State != "ok" {
		t.Errorf("overhead final state %q", s.Experiments[0].State)
	}
	if e := s.Experiments[1]; e.State != "error" || e.Err != "assembly failed" {
		t.Errorf("tables final state: %+v", e)
	}
}

// TestStatusBoardNil: every method must be a safe no-op on a nil board.
func TestStatusBoardNil(t *testing.T) {
	var b *StatusBoard
	b.SuiteStarted([]string{"x"}, []int{1})
	b.JobFinished(Result{JobID: "x/0", Experiment: "x"})
	b.ExperimentFinished("x", nil)
	b.SuiteFinished()
	if s := b.Snapshot(); s.Running || s.TotalJobs != 0 {
		t.Fatalf("nil board snapshot: %+v", s)
	}
}

// TestStatusBoardConcurrent: concurrent folds and snapshots stay coherent
// (run under -race).
func TestStatusBoardConcurrent(t *testing.T) {
	b := NewStatusBoard()
	b.SuiteStarted([]string{"p"}, []int{400})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.JobFinished(Result{JobID: "p/j", Experiment: "p", Status: StatusOK})
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = b.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := b.Snapshot(); s.DoneJobs != 400 || s.FailedJobs != 0 {
		t.Fatalf("final: %+v", s)
	}
}

// TestRunUpdatesStatusBoard: the runner itself must feed the board as jobs
// complete and experiments assemble.
func TestRunUpdatesStatusBoard(t *testing.T) {
	board := NewStatusBoard()
	set := jobSet("exp", okJob("a", 1), okJob("b", 1), okJob("c", 1), errJob("d", "planned failure"))
	if _, err := SuiteSets(context.Background(), []experiments.JobSet{set}, Config{Workers: 2, Status: board}); err != nil {
		t.Fatal(err)
	}
	s := board.Snapshot()
	if s.Running || s.TotalJobs != 4 || s.DoneJobs != 4 || s.FailedJobs != 1 {
		t.Fatalf("board after SuiteSets: %+v", s)
	}
	if e := s.Experiments[0]; e.State != "error" || !strings.Contains(e.Err, "planned failure") {
		t.Errorf("experiment state: %+v", e)
	}
}
