// Package runner is the experiment execution engine: it schedules the
// flattened jobs of a suite's experiments onto a bounded worker pool with
// panic recovery, cancellation, live progress and a structured JSONL result
// sink, then reassembles the out-of-order completions into deterministic
// tables (suite.go).
//
// Determinism contract: results are indexed exactly like the submitted jobs,
// and the jobs themselves seed their simulations explicitly, so any worker
// count — including the serial Workers=1 special case — yields identical
// metrics and therefore byte-identical assembled tables. A job that fails
// would fail the same way again, so the pool never retries one.
//
// This pool is the only host-side parallelism over experiments: it spreads
// whole jobs across workers (-parallel), and the trials and paired
// simulations inside one job run serially on that job's worker; see
// doc/parallelism.md.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/obs"
)

// Status classifies how a job finished.
type Status string

const (
	// StatusOK: the job returned metrics.
	StatusOK Status = "ok"
	// StatusFailed: the job returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusCanceled: the suite was canceled before the job finished.
	StatusCanceled Status = "canceled"
)

// Result records one job's outcome. Results are returned indexed exactly as
// the jobs were submitted, regardless of completion order.
type Result struct {
	JobID      string
	Experiment string
	Params     map[string]string
	Status     Status
	Metrics    map[string]float64
	Err        string
	Wall       time.Duration
	Start, End time.Time
}

// Config tunes the pool.
type Config struct {
	// Workers is the number of concurrently running jobs; <= 0 means
	// GOMAXPROCS. Workers == 1 is the serial path.
	Workers int
	// Sink, when non-nil, receives every result as its job completes.
	Sink *Sink
	// OnProgress, when non-nil, is called after every job completion. Calls
	// are serialized; keep the work cheap.
	OnProgress func(Progress)
	// Recorder, when non-nil, aggregates job outcomes and wall times into
	// its metrics registry (internal/obs); Suite also decomposes the jobs
	// with it, so their emulators report to it. A nil recorder is a no-op.
	Recorder *obs.Recorder
	// Status, when non-nil, tracks live per-experiment job progress for the
	// HTTP introspection plane (/runs). A nil board is a no-op.
	Status *StatusBoard
}

// Progress snapshots suite completion for live reporting.
type Progress struct {
	Done   int
	Failed int
	Total  int
	Last   Result
}

// job is one schedulable unit: an experiment job and the set it belongs to.
type job struct {
	set string
	experiments.Job
}

// result starts the job's record; the caller fills in the outcome.
func (j job) result(now time.Time) Result {
	return Result{JobID: j.set + "/" + j.Name, Experiment: j.set, Params: j.Params, Start: now}
}

// run executes jobs on a bounded worker pool and returns results indexed
// exactly as jobs. When ctx is canceled, workers take no further jobs and
// run returns at once without waiting for the jobs still in flight: every
// job that had not finished is recorded as StatusCanceled. The error is
// non-nil only when the sink failed to record a result.
func run(ctx context.Context, cfg Config, jobs []job) ([]Result, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers write ran[i] and then send i, buffered for every job, so a
	// worker still running when the collector returns on cancellation never
	// blocks. The collector copies each finished result into results, which
	// no worker touches.
	ran := make([]Result, len(jobs))
	finished := make(chan int, len(jobs))
	var next atomic.Int64
	for range min(workers, len(jobs)) {
		go func() {
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				ran[i] = runJob(jobs[i])
				finished <- i
			}
		}()
	}

	results := make([]Result, len(jobs))
	var sinkErr error
	done, failed := 0, 0
	collect := func(i int, r Result) {
		results[i] = r
		done++
		if r.Status != StatusOK {
			failed++
		}
		cfg.Recorder.JobDone(string(r.Status), r.Wall)
		cfg.Status.JobFinished(r)
		if cfg.Sink != nil {
			if err := cfg.Sink.Write(r); err != nil && sinkErr == nil {
				sinkErr = fmt.Errorf("runner: result sink: %w", err)
			}
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{Done: done, Failed: failed, Total: len(jobs), Last: r})
		}
	}
	for done < len(jobs) {
		select {
		case i := <-finished:
			collect(i, ran[i])
		case <-ctx.Done():
			for len(finished) > 0 {
				i := <-finished
				collect(i, ran[i])
			}
			now := time.Now()
			for i, r := range results {
				if r.Status == "" {
					r = jobs[i].result(now)
					r.Status, r.Err, r.End = StatusCanceled, "suite canceled", now
					collect(i, r)
				}
			}
		}
	}
	return results, sinkErr
}

// runJob runs one job, turning an error or a panic into a failed-job record
// instead of letting it kill the suite.
func runJob(j job) (res Result) {
	res = j.result(time.Now())
	defer func() {
		if p := recover(); p != nil {
			res.Status = StatusFailed
			res.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
		res.End = time.Now()
		res.Wall = res.End.Sub(res.Start)
	}()
	m, err := j.Run()
	if err != nil {
		res.Status, res.Err = StatusFailed, err.Error()
	} else {
		res.Status, res.Metrics = StatusOK, m
	}
	return res
}
