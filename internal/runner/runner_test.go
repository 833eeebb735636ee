package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// okJob returns a job that yields {"v": v}.
func okJob(name string, v float64) experiments.Job {
	return experiments.Job{
		Name: name,
		Run:  func() (experiments.Metrics, error) { return experiments.Metrics{"v": v}, nil },
	}
}

// errJob returns a job that fails with msg.
func errJob(name, msg string) experiments.Job {
	return experiments.Job{
		Name: name,
		Run:  func() (experiments.Metrics, error) { return nil, errors.New(msg) },
	}
}

// jobSet is a synthetic experiment whose table lists each job's "v".
func jobSet(id string, jobs ...experiments.Job) experiments.JobSet {
	return experiments.JobSet{
		ID:   id,
		Jobs: jobs,
		Assemble: func(points []experiments.Metrics) (experiments.Table, error) {
			t := experiments.Table{ID: id, Title: id, Header: []string{"v"}}
			for _, p := range points {
				t.Rows = append(t.Rows, []string{fmt.Sprint(p["v"])})
			}
			return t, nil
		},
	}
}

func TestResultsIndexedBySubmissionOrder(t *testing.T) {
	var sets []experiments.JobSet
	for s := 0; s < 2; s++ {
		var jobs []experiments.Job
		for i := 0; i < 25; i++ {
			jobs = append(jobs, okJob(fmt.Sprintf("job-%d", i), float64(100*s+i)))
		}
		sets = append(sets, jobSet(fmt.Sprintf("set-%d", s), jobs...))
	}
	runs, err := SuiteSets(context.Background(), sets, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for s, er := range runs {
		if er.Err != nil {
			t.Fatalf("%s: %v", er.ID, er.Err)
		}
		if len(er.Jobs) != 25 {
			t.Fatalf("%s: got %d results, want 25", er.ID, len(er.Jobs))
		}
		for i, r := range er.Jobs {
			if want := fmt.Sprintf("set-%d/job-%d", s, i); r.JobID != want {
				t.Errorf("result %d is %q, want %q", i, r.JobID, want)
			}
			if r.Status != StatusOK || r.Metrics["v"] != float64(100*s+i) {
				t.Errorf("result %s: status %s metrics %v", r.JobID, r.Status, r.Metrics)
			}
		}
	}
}

// TestPanicBecomesFailedJobRecord: a crashed job must become a failed-job
// record — with the panic message preserved — while its siblings complete
// untouched.
func TestPanicBecomesFailedJobRecord(t *testing.T) {
	boom := experiments.Job{
		Name: "boom",
		Run:  func() (experiments.Metrics, error) { panic("simulated sim crash") },
	}
	runs, err := SuiteSets(context.Background(),
		[]experiments.JobSet{jobSet("test", okJob("before", 1), boom, okJob("after", 2))},
		Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results := runs[0].Jobs
	if results[1].Status != StatusFailed {
		t.Fatalf("panicking job status = %s, want %s", results[1].Status, StatusFailed)
	}
	if !strings.Contains(results[1].Err, "simulated sim crash") {
		t.Errorf("panic message lost: %q", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Status != StatusOK {
			t.Errorf("job %s did not survive the sibling panic: %s", results[i].JobID, results[i].Status)
		}
	}
}

// TestCancellationDrainsWorkers: canceling mid-suite must return promptly,
// even though the jobs in flight ignore the cancellation (as real jobs do),
// with every unfinished job recorded canceled and the finished experiment
// still assembled.
func TestCancellationDrainsWorkers(t *testing.T) {
	const workers, stuckN = 4, 30
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, stuckN)
	var stuck []experiments.Job
	for i := 0; i < stuckN; i++ {
		stuck = append(stuck, experiments.Job{
			Name: fmt.Sprintf("stuck-%d", i),
			Run: func() (experiments.Metrics, error) {
				started <- struct{}{}
				<-release
				return experiments.Metrics{"v": 1}, nil
			},
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Once every worker sits in a stuck job, the quick job has finished.
		for i := 0; i < workers; i++ {
			<-started
		}
		cancel()
	}()
	var progressN int
	type outcome struct {
		runs []ExperimentRun
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		runs, err := SuiteSets(ctx,
			[]experiments.JobSet{jobSet("quick", okJob("only", 1)), jobSet("stuck", stuck...)},
			Config{Workers: workers, OnProgress: func(Progress) { progressN++ }})
		done <- outcome{runs, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SuiteSets did not return after cancellation")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if er := o.runs[0]; er.Err != nil || !strings.Contains(er.Table.Render(), "quick") {
		t.Errorf("finished experiment did not assemble: err=%v table=%q", er.Err, er.Table.Render())
	}
	er := o.runs[1]
	if er.Err == nil || !strings.Contains(er.Err.Error(), string(StatusCanceled)) {
		t.Errorf("canceled experiment error = %v", er.Err)
	}
	for _, r := range er.Jobs {
		if r.Status != StatusCanceled {
			t.Errorf("job %s status = %q, want %s", r.JobID, r.Status, StatusCanceled)
		}
	}
	if progressN != 1+stuckN {
		t.Errorf("progress reported %d jobs, want %d", progressN, 1+stuckN)
	}
}

func TestSinkWritesJSONLRecords(t *testing.T) {
	var buf bytes.Buffer
	b := errJob("b", "kaput")
	b.Params = map[string]string{"point": "x"}
	if _, err := SuiteSets(context.Background(),
		[]experiments.JobSet{jobSet("test", okJob("a", 1), b)},
		Config{Workers: 2, Sink: NewSink(&buf)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	byJob := map[string]record{}
	for _, line := range lines {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		byJob[rec.Job] = rec
	}
	if a := byJob["test/a"]; a.Status != StatusOK || a.Metrics["v"] != 1 || a.Experiment != "test" {
		t.Errorf("record a = %+v", a)
	}
	if b := byJob["test/b"]; b.Status != StatusFailed || !strings.Contains(b.Error, "kaput") || b.Params["point"] != "x" {
		t.Errorf("record b = %+v", b)
	}
}

func TestProgressReporting(t *testing.T) {
	var last Progress
	var callsN int
	_, err := SuiteSets(context.Background(),
		[]experiments.JobSet{jobSet("test", okJob("a", 1), okJob("b", 2), errJob("c", "no"))},
		Config{Workers: 1, OnProgress: func(p Progress) {
			callsN++
			last = p
		}})
	if err != nil {
		t.Fatal(err)
	}
	if callsN != 3 {
		t.Errorf("progress called %d times, want 3", callsN)
	}
	if last.Done != 3 || last.Total != 3 || last.Failed != 1 {
		t.Errorf("final progress = %+v", last)
	}
}

func TestZeroJobs(t *testing.T) {
	runs, err := SuiteSets(context.Background(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("got %d runs for zero sets", len(runs))
	}
}
