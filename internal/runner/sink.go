package runner

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink serializes job results as JSON Lines: one self-contained record per
// completed job, written in completion order. Write is safe for concurrent
// use.
type Sink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewSink returns a sink writing JSONL records to w.
func NewSink(w io.Writer) *Sink {
	return &Sink{enc: json.NewEncoder(w)}
}

// record is the JSONL schema of one job result.
type record struct {
	Job        string             `json:"job"`
	Experiment string             `json:"experiment"`
	Params     map[string]string  `json:"params,omitempty"`
	Status     Status             `json:"status"`
	WallMS     float64            `json:"wall_ms"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// Write appends one result as a JSONL record.
func (s *Sink) Write(r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(record{
		Job:        r.JobID,
		Experiment: r.Experiment,
		Params:     r.Params,
		Status:     r.Status,
		WallMS:     float64(r.Wall.Microseconds()) / 1e3,
		Metrics:    r.Metrics,
		Error:      r.Err,
	})
}
