package bench

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// StoreLatConfig parameterizes the streaming-store kernel used by the
// asymmetric-model validation sweeps (fig12-asym): one pass of posted stores
// over a cold buffer, so every line is write-allocated from memory exactly
// once and the store-miss count equals the line count.
type StoreLatConfig struct {
	// Lines is the number of cache-line-sized elements stored to.
	Lines int
	// Node is the NUMA node the buffer is allocated on.
	Node int
}

// Validate reports configuration errors.
func (c StoreLatConfig) Validate() error {
	if c.Lines <= 0 {
		return fmt.Errorf("bench: StoreLat needs positive lines (got %d)", c.Lines)
	}
	return nil
}

// StoreLat is a built instance of the kernel.
type StoreLat struct {
	cfg  StoreLatConfig
	base uintptr
}

// BuildStoreLat allocates the store buffer inside p's address space.
func BuildStoreLat(p *simos.Process, cfg StoreLatConfig) (*StoreLat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, err := p.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
	if err != nil {
		return nil, fmt.Errorf("bench: StoreLat buffer: %w", err)
	}
	return &StoreLat{cfg: cfg, base: base}, nil
}

// Run streams one store per line from thread t; the buffer is cold, so each
// of the Lines stores misses. Stores are posted — the pipeline pays only the
// L1 latency — so the baseline completion time is nearly flat; under the
// asymmetric store model the per-epoch write-stall injection stretches the
// caller's window by storeMisses x (NVM_write - DRAM), which is what the
// fig12-asym sweep extracts.
func (b *StoreLat) Run(t *simos.Thread) {
	t.StoreRun(b.base, mem.LineSize, b.cfg.Lines)
}

// StoreBWConfig parameterizes the multi-writer persistent-store kernel of
// the write-bandwidth-collapse sweep (fig11-asym): Writers threads, each
// streaming store+clflushopt batches over a private buffer and fencing per
// batch — the standard persistent-memory write idiom. Batching keeps several
// writebacks outstanding per writer, so the kernel saturates (and its
// aggregate throughput tracks) the possibly collapsing write throttle
// instead of serializing on per-line flush stalls.
type StoreBWConfig struct {
	// Writers is the number of concurrent writer threads.
	Writers int
	// Lines is the number of cache lines each writer stores and flushes.
	Lines int
	// Node is where the buffers are allocated.
	Node int
}

// storeBWBatch is the number of clflushopt writebacks a StoreBW writer keeps
// in flight between fences.
const storeBWBatch = 8

// Validate reports configuration errors.
func (c StoreBWConfig) Validate() error {
	if c.Writers <= 0 || c.Lines <= 0 {
		return fmt.Errorf("bench: StoreBW needs positive writers/lines (got %d/%d)", c.Writers, c.Lines)
	}
	return nil
}

// StoreBWResult is one run's measurement.
type StoreBWResult struct {
	// CT is the wall completion time from the post-rendezvous start to the
	// last writer's finish.
	CT sim.Time
	// Bytes is the total application payload written (lines x mem.LineSize
	// across all writers; the device may move more per line under a
	// configured access granularity).
	Bytes int64
}

// AggBytesPerSec reports the kernel's aggregate application-visible write
// throughput.
func (r StoreBWResult) AggBytesPerSec() float64 {
	if r.CT <= 0 {
		return 0
	}
	return float64(r.Bytes) / (float64(r.CT) / float64(sim.Second))
}

// RunStoreBW builds the per-writer buffers, spawns the writers from the
// given main thread, and reports the completion time and bytes written. It
// must be called from inside an Env.Run body so thread creation runs the
// process's ThreadStarted hook — under the emulator, each writer
// registration reprograms the write throttle when a
// write-bandwidth collapse curve is configured.
//
// As in RunMultiThreaded, the writers' trailing epochs stay open: their
// last write stalls are not in CT. Settling them would move fig11-asym's
// table and the paper-quick benchmark digests, so it waits for the
// exit-time accounting of unclosed epochs.
func RunStoreBW(env *Env, main *simos.Thread, cfg StoreBWConfig) (StoreBWResult, error) {
	if err := cfg.Validate(); err != nil {
		return StoreBWResult{}, err
	}
	bases := make([]uintptr, cfg.Writers)
	for i := range bases {
		base, err := env.Proc.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
		if err != nil {
			return StoreBWResult{}, fmt.Errorf("bench: StoreBW buffer %d: %w", i, err)
		}
		bases[i] = base
	}

	// Start rendezvous, as in RunMultiThreaded: the measured window opens
	// after every writer has registered, keeping registration costs (and the
	// per-registration throttle reprogramming) out of the completion time.
	startMu := env.Proc.NewMutex("sbw-start-mu")
	arrivedCv := env.Proc.NewCond("sbw-arrived-cv")
	goCv := env.Proc.NewCond("sbw-go-cv")
	arrived := 0
	started := false

	threads := make([]*simos.Thread, 0, cfg.Writers)
	for i := range bases {
		base := bases[i]
		th, err := main.CreateThread(fmt.Sprintf("sbw-%d", i), func(t *simos.Thread) {
			startMu.Lock(t)
			arrived++
			arrivedCv.Signal(t)
			for !started {
				goCv.Wait(t, startMu)
			}
			startMu.Unlock(t)
			for l := 0; l < cfg.Lines; {
				var fence sim.Time
				for b := 0; b < storeBWBatch && l < cfg.Lines; b, l = b+1, l+1 {
					addr := base + uintptr(l)*mem.LineSize
					t.Store(addr)
					if done := t.FlushOpt(addr); done > fence {
						fence = done
					}
				}
				t.Fence(fence) // sfence: drain the batch's writebacks
			}
		})
		if err != nil {
			return StoreBWResult{}, fmt.Errorf("bench: spawning StoreBW writer %d: %w", i, err)
		}
		threads = append(threads, th)
	}
	startMu.Lock(main)
	for arrived < cfg.Writers {
		arrivedCv.Wait(main, startMu)
	}
	start := main.SettledNow()
	started = true
	goCv.Broadcast(main)
	startMu.Unlock(main)
	var end sim.Time
	for _, th := range threads {
		main.Join(th)
		if th.Now() > end {
			end = th.Now()
		}
	}
	if after := main.Now(); after > end {
		end = after
	}
	return StoreBWResult{
		CT:    end - start,
		Bytes: int64(cfg.Writers) * int64(cfg.Lines) * mem.LineSize,
	}, nil
}
