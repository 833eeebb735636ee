package experiments

import (
	"fmt"
	"sort"

	"github.com/quartz-emu/quartz/internal/obs"
)

// entry couples an experiment's job decomposition with its one-line
// description for `quartzbench -list`.
type entry struct {
	jobs        func(Scale, *obs.Recorder) JobSet
	description string
}

// registry maps experiment ids (table/figure numbers) to their
// decompositions.
var registry = map[string]entry{
	"table1":            {table1Jobs, "performance events programmed per processor family (Table 1)"},
	"table2":            {table2Jobs, "measured local/remote DRAM access latencies per testbed (Table 2)"},
	"fig8":              {fig8Jobs, "STREAM copy bandwidth vs thermal-throttle register (Fig. 8)"},
	"fig11":             {fig11Jobs, "MemLat emulation error vs memory-level parallelism (Fig. 11)"},
	"fig12":             {fig12Jobs, "MemLat-reported latency vs emulated NVM latency (Fig. 12)"},
	"fig13":             {fig13Jobs, "Multi-Threaded delay propagation via minimum epochs (Fig. 13)"},
	"fig14":             {fig14Jobs, "MultiLat error under the DRAM+NVM virtual topology (Fig. 14)"},
	"fig15":             {fig15Jobs, "KV store put/get validation errors, Conf_1 vs Conf_2 (Fig. 15)"},
	"fig16":             {fig16Jobs, "application sensitivity to NVM latency and bandwidth (Fig. 16)"},
	"pagerank-validate": {pageRankValidationJobs, "PageRank completion-time validation, Conf_1 vs Conf_2 (§4.7)"},
	"overhead":          {overheadJobs, "emulator overhead accounting: init, registration, epochs (§3.2)"},
	"epoch-size":        {epochSizeJobs, "MemLat accuracy vs maximum epoch size (footnote 4)"},
	"model-ablation":    {modelAblationJobs, "Eq. 2 stall model vs naive Eq. 1 under MLP (Fig. 2)"},
	"pcommit":           {pcommitAblationJobs, "serialized pflush vs clflushopt+pcommit write model (§6)"},
	"amortization":      {amortizationAblationJobs, "overhead carry-over amortization on/off (§3.2)"},
	"graph500-validate": {graph500ValidationJobs, "Graph500 BFS validation, Conf_1 vs Conf_2 (§7)"},
	"ext-asym-bw":       {asymmetricBandwidthJobs, "asymmetric read/write bandwidth throttling (§2.1 extension)"},
	"fig11-asym":        {fig11AsymJobs, "write bandwidth vs writer threads under calibrated NVM profiles (asymmetric model)"},
	"fig12-asym":        {fig12AsymJobs, "emulated read vs store latency per NVM profile (asymmetric model)"},
	"traffic-sweep":     {trafficSweepJobs, "serving traffic: client count x mix x NVM latency, knee detection (extension)"},
	"traffic-slo":       {trafficSLOJobs, "serving traffic: per-op-kind SLO breakdown at peak load (extension)"},
	"traffic-mega":      {trafficMegaJobs, "serving traffic at scheduler scale: up to 2^20 clients per scenario (extension)"},
}

// All lists experiment ids in stable order.
func All() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// Describe returns the one-line description of experiment id.
func Describe(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", unknownErr(id)
	}
	return e.description, nil
}

// Jobs decomposes experiment id at scale s into its independent sweep-point
// jobs and the deterministic assembler that merges their results. Its
// emulators observe nothing; ObservedJobs hands them a recorder.
func Jobs(id string, s Scale) (JobSet, error) { return ObservedJobs(id, s, nil) }

// ObservedJobs is Jobs whose emulators report to rec, the run's recorder:
// every emulator a job attaches carries it as its core.Config.Observer.
func ObservedJobs(id string, s Scale, rec *obs.Recorder) (JobSet, error) {
	e, ok := registry[id]
	if !ok {
		return JobSet{}, unknownErr(id)
	}
	return e.jobs(s, rec), nil
}

// Run regenerates experiment id at scale s by running its jobs serially in
// decomposition order, in the calling goroutine. internal/runner executes
// the same jobs concurrently and assembles an identical table.
func Run(id string, s Scale) (Table, error) {
	js, err := Jobs(id, s)
	if err != nil {
		return Table{}, err
	}
	points := make([]Metrics, len(js.Jobs))
	for i, j := range js.Jobs {
		m, err := j.Run()
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", j.Name, err)
		}
		points[i] = m
	}
	return js.Assemble(points)
}

func unknownErr(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, All())
}
