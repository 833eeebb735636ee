// Package runner is the experiment execution engine: it schedules
// independent deterministic jobs onto a bounded worker pool with per-job
// timeouts, panic recovery, bounded retries, cancellation, live progress and
// a structured JSONL result sink, then reassembles the out-of-order
// completions into deterministic tables (suite.go).
//
// Determinism contract: results are indexed exactly like the submitted jobs,
// and the jobs themselves seed their simulations explicitly, so any worker
// count — including the serial Workers=1 special case — yields identical
// metrics and therefore byte-identical assembled tables.
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
	"sync"
	"sync/atomic"
	"time"

	"github.com/quartz-emu/quartz/internal/obs"
)

// Status classifies how a job finished.
type Status string

const (
	// StatusOK: the job returned metrics.
	StatusOK Status = "ok"
	// StatusFailed: every attempt returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusTimeout: the per-job timeout fired; the attempt was abandoned.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the suite was canceled before the job could finish.
	StatusCanceled Status = "canceled"
)

// Job is one schedulable unit of work.
type Job struct {
	// ID is unique across the suite, e.g. "fig12/Ivy Bridge/target=500".
	ID string
	// Experiment is the owning experiment id ("fig12").
	Experiment string
	// Params describes the sweep point for the result sink.
	Params map[string]string
	// Fn computes the job. Deterministic jobs ignore ctx; long-running ones
	// may honor it to stop early on cancellation.
	Fn func(ctx context.Context) (map[string]float64, error)
}

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
	Attempts   int
	Start, End time.Time
}

// Config tunes the pool.
type Config struct {
	// Workers is the number of concurrently running jobs; <= 0 means
	// GOMAXPROCS. Workers == 1 is the serial path.
	Workers int
	// Timeout bounds each job attempt; 0 disables. A timed-out attempt's
	// goroutine is abandoned (it cannot be preempted mid-simulation) and the
	// job is recorded as StatusTimeout without retry.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed (errored
	// or panicked) attempt.
	Retries int
	// Sink, when non-nil, receives every result as its job completes.
	Sink *Sink
	// OnProgress, when non-nil, is called after every job completion. Calls
	// are serialized; keep the work cheap.
	OnProgress func(Progress)
	// Recorder, when non-nil, aggregates job outcomes, attempts and wall
	// times into its metrics registry (internal/obs). A nil recorder is a
	// no-op.
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

// Run executes jobs on a bounded worker pool and returns results indexed
// exactly as jobs. It never returns early: when ctx is canceled, running
// attempts are abandoned, the remaining jobs are recorded as
// StatusCanceled, and all workers are drained before returning. The error
// is non-nil only when the sink failed to record a result.
func Run(ctx context.Context, cfg Config, jobs []Job) ([]Result, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	completions := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil {
					results[i] = canceled(jobs[i])
				} else {
					results[i] = runJob(ctx, cfg, jobs[i])
				}
				completions <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	var sinkErr error
	done, failed := 0, 0
	for i := range completions {
		r := results[i]
		done++
		if r.Status != StatusOK {
			failed++
		}
		cfg.Recorder.JobDone(r.JobID, string(r.Status), r.Attempts, r.Wall)
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
	return results, sinkErr
}

// canceled records a job that was never attempted.
func canceled(j Job) Result {
	now := time.Now()
	return Result{
		JobID: j.ID, Experiment: j.Experiment, Params: j.Params,
		Status: StatusCanceled, Err: "suite canceled",
		Start: now, End: now,
	}
}

// runJob runs one job with bounded retries, converting panics and timeouts
// into failed-job records instead of letting them kill the suite.
func runJob(ctx context.Context, cfg Config, j Job) Result {
	res := Result{JobID: j.ID, Experiment: j.Experiment, Params: j.Params, Start: time.Now()}
	attempts := 1 + cfg.Retries
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		res.Attempts = attempt
		metrics, interrupted, err := runAttempt(ctx, cfg.Timeout, j)
		switch {
		case interrupted == byTimeout:
			// Deterministic jobs time out deterministically: don't retry.
			res.Status = StatusTimeout
			res.Err = fmt.Sprintf("attempt %d: no result within %s", attempt, cfg.Timeout)
			attempt = attempts
		case interrupted == byCancel:
			res.Status = StatusCanceled
			res.Err = "suite canceled mid-attempt"
			attempt = attempts
		case err != nil:
			res.Status = StatusFailed
			res.Err = fmt.Sprintf("attempt %d: %v", attempt, err)
		default:
			res.Status = StatusOK
			res.Metrics = metrics
			res.Err = ""
			attempt = attempts
		}
	}
	res.End = time.Now()
	res.Wall = res.End.Sub(res.Start)
	return res
}

// interruption distinguishes why an attempt returned without a job result.
type interruption int

const (
	notInterrupted interruption = iota
	byTimeout
	byCancel
)

// runAttempt runs Fn in its own goroutine so that a panic, a hang past the
// timeout, or a context cancellation can be observed without taking down
// the worker. Abandoned attempts finish in the background; their results
// are discarded via the buffered channel.
func runAttempt(ctx context.Context, timeout time.Duration, j Job) (map[string]float64, interruption, error) {
	type attempt struct {
		metrics map[string]float64
		err     error
	}
	ch := make(chan attempt, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- attempt{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		m, err := j.Fn(ctx)
		ch <- attempt{metrics: m, err: err}
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case a := <-ch:
		return a.metrics, notInterrupted, a.err
	case <-timer:
		return nil, byTimeout, nil
	case <-ctx.Done():
		return nil, byCancel, nil
	}
}
