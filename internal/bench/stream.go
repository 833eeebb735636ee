package bench

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// StreamConfig parameterizes the STREAM copy kernel (§4.2, Fig. 8): several
// threads stream through disjoint slices of a large region with wide
// (SSE-style) accesses, saturating memory bandwidth.
type StreamConfig struct {
	// Lines is the total number of cache lines copied (per array).
	Lines int
	// Threads forks that many streaming workers, as the paper's
	// calibration helper does to saturate bandwidth.
	Threads int
	// Node is where both arrays live.
	Node int
}

// streamBatch is the number of parallel line loads a STREAM worker issues
// per step (the streaming-load pipeline depth).
const streamBatch = 8

// Validate reports configuration errors.
func (c StreamConfig) Validate() error {
	if c.Lines <= 0 || c.Threads <= 0 {
		return fmt.Errorf("bench: bad StreamConfig %+v", c)
	}
	return nil
}

// StreamResult is one run's measurement.
type StreamResult struct {
	CT sim.Time
	// BytesPerSec is the achieved copy bandwidth, counted STREAM-style as
	// bytes read plus bytes written (2 x mem.LineSize per copied line).
	BytesPerSec float64
}

// RunStream copies src to dst with Threads workers from the given main
// thread and reports achieved bandwidth.
func RunStream(env *Env, main *simos.Thread, cfg StreamConfig) (StreamResult, error) {
	if err := cfg.Validate(); err != nil {
		return StreamResult{}, err
	}
	src, err := env.Proc.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
	if err != nil {
		return StreamResult{}, fmt.Errorf("bench: stream src: %w", err)
	}
	dst, err := env.Proc.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
	if err != nil {
		return StreamResult{}, fmt.Errorf("bench: stream dst: %w", err)
	}

	perWorker := cfg.Lines / cfg.Threads
	start := main.Now()
	var workers []*simos.Thread
	for w := 0; w < cfg.Threads; w++ {
		lo := w * perWorker
		hi := lo + perWorker
		if w == cfg.Threads-1 {
			hi = cfg.Lines
		}
		th, err := main.CreateThread(fmt.Sprintf("stream-%d", w), func(t *simos.Thread) {
			for i := lo; i < hi; i += streamBatch {
				n := min(streamBatch, hi-i)
				t.LoadGroupRun(src+uintptr(i)*mem.LineSize, mem.LineSize, n)
				t.StoreRun(dst+uintptr(i)*mem.LineSize, mem.LineSize, n)
			}
		})
		if err != nil {
			return StreamResult{}, fmt.Errorf("bench: spawning stream worker %d: %w", w, err)
		}
		workers = append(workers, th)
	}
	var end sim.Time
	for _, th := range workers {
		main.Join(th)
		if th.Now() > end {
			end = th.Now()
		}
	}
	ct := end - start
	if ct <= 0 {
		return StreamResult{}, fmt.Errorf("bench: stream finished in non-positive time %v", ct)
	}
	moved := float64(cfg.Lines) * mem.LineSize * 2
	return StreamResult{CT: ct, BytesPerSec: moved / ct.Seconds()}, nil
}
