package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// ExperimentRun is the outcome of one experiment within a suite.
type ExperimentRun struct {
	ID string
	// Table is the assembled artifact; valid only when Err is nil.
	Table experiments.Table
	// Err is set when any job failed or was canceled, or when assembly
	// failed. The rest of the suite still completes.
	Err error
	// Jobs are the experiment's job results in decomposition order.
	Jobs []Result
	// Wall spans the earliest job start to the latest job end (zero for
	// job-less experiments such as table1).
	Wall time.Duration
}

// Suite resolves ids against the experiment registry, with cfg.Recorder as
// the scale's Observer, and runs them as one scheduled workload via
// SuiteSets.
func Suite(ctx context.Context, ids []string, s experiments.Scale, cfg Config) ([]ExperimentRun, error) {
	s.Observer = cfg.Recorder
	sets := make([]experiments.JobSet, 0, len(ids))
	for _, id := range ids {
		js, err := experiments.Jobs(id, s)
		if err != nil {
			return nil, err
		}
		sets = append(sets, js)
	}
	return SuiteSets(ctx, sets, cfg)
}

// SuiteSets flattens the job sets into one job list, runs it on the pool —
// jobs of different experiments interleave freely, maximizing utilization —
// and reassembles each experiment's table from its results in decomposition
// order. Assembly depends only on job metrics, never on scheduling, so the
// output is byte-identical for every worker count. One experiment failing
// (job error, panic, cancellation) marks that run's Err and leaves
// the others intact.
func SuiteSets(ctx context.Context, sets []experiments.JobSet, cfg Config) ([]ExperimentRun, error) {
	var flat []job
	offsets := make([]int, len(sets)+1)
	for si, set := range sets {
		offsets[si] = len(flat)
		for _, ej := range set.Jobs {
			flat = append(flat, job{set: set.ID, Job: ej})
		}
	}
	offsets[len(sets)] = len(flat)

	if cfg.Status != nil {
		ids := make([]string, len(sets))
		counts := make([]int, len(sets))
		for si, set := range sets {
			ids[si] = set.ID
			counts[si] = offsets[si+1] - offsets[si]
		}
		cfg.Status.SuiteStarted(ids, counts)
		defer cfg.Status.SuiteFinished()
	}

	results, sinkErr := run(ctx, cfg, flat)

	runs := make([]ExperimentRun, 0, len(sets))
	for si, set := range sets {
		er := ExperimentRun{ID: set.ID, Jobs: results[offsets[si]:offsets[si+1]]}
		points := make([]experiments.Metrics, 0, len(er.Jobs))
		var first, last time.Time
		for _, r := range er.Jobs {
			if r.Status != StatusOK {
				er.Err = fmt.Errorf("job %s %s: %s", r.JobID, r.Status, r.Err)
				break
			}
			points = append(points, experiments.Metrics(r.Metrics))
			if first.IsZero() || r.Start.Before(first) {
				first = r.Start
			}
			if r.End.After(last) {
				last = r.End
			}
		}
		if er.Err == nil {
			er.Wall = last.Sub(first)
			er.Table, er.Err = set.Assemble(points)
		}
		cfg.Status.ExperimentFinished(set.ID, er.Err)
		runs = append(runs, er)
	}
	return runs, sinkErr
}
