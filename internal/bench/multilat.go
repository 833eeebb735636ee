package bench

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// MultiLatConfig parameterizes the MultiLat benchmark (§4.6): a pointer
// chain spanning two arrays — one in DRAM, one in (virtual) NVM — visited
// with a repeating access pattern of DRAMBurst DRAM reads followed by
// NVMBurst NVM reads, until every element of both arrays has been read
// exactly once.
type MultiLatConfig struct {
	// DRAMLines and NVMLines are Num^DRAM and Num^NVM.
	DRAMLines, NVMLines int
	// DRAMBurst / NVMBurst define the repeating access pattern, e.g.
	// 2000:1000 (the paper's Pattern-3).
	DRAMBurst, NVMBurst int
	// Seed drives the chain permutations.
	Seed int64
}

// Validate reports configuration errors.
func (c MultiLatConfig) Validate() error {
	if c.DRAMLines <= 1 || c.NVMLines <= 1 || c.DRAMBurst <= 0 || c.NVMBurst <= 0 {
		return fmt.Errorf("bench: bad MultiLatConfig %+v", c)
	}
	if err := checkChainLen("MultiLatConfig.DRAMLines", c.DRAMLines); err != nil {
		return err
	}
	return checkChainLen("MultiLatConfig.NVMLines", c.NVMLines)
}

// MultiLat is a built instance: a DRAM-resident chain (plain malloc) and an
// NVM-resident chain (pmalloc through the emulator's virtual topology).
type MultiLat struct {
	cfg       MultiLatConfig
	orderDRAM *visitOrder
	orderNVM  *visitOrder
	baseDRAM  uintptr
	baseNVM   uintptr
}

// MultiLatResult is what one run is validated against; the caller times
// the run itself.
type MultiLatResult struct {
	// ExpectedCT is Num^DRAM * DRAM_lat + Num^NVM * NVM_lat, the model
	// completion time the paper validates against (§4.6).
	ExpectedCT sim.Time
}

// BuildMultiLat allocates the two chains: DRAM via malloc, NVM via the
// emulator's pmalloc.
func BuildMultiLat(p *simos.Process, emu *core.Emulator, cfg MultiLatConfig) (*MultiLat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	baseDRAM, err := p.Malloc(uintptr(cfg.DRAMLines) * mem.LineSize)
	if err != nil {
		return nil, fmt.Errorf("bench: MultiLat DRAM array: %w", err)
	}
	baseNVM, err := emu.PMalloc(uintptr(cfg.NVMLines) * mem.LineSize)
	if err != nil {
		return nil, fmt.Errorf("bench: MultiLat NVM array: %w", err)
	}
	return &MultiLat{
		cfg:       cfg,
		orderDRAM: permutationCycle(cfg.DRAMLines, cfg.Seed),
		orderNVM:  permutationCycle(cfg.NVMLines, cfg.Seed+65537),
		baseDRAM:  baseDRAM,
		baseNVM:   baseNVM,
	}, nil
}

// Run chases the combined pattern until both arrays are exhausted, reading
// each element exactly once.
func (b *MultiLat) Run(t *simos.Thread, dramLat, nvmLat sim.Time) MultiLatResult {
	dram, nvm := b.orderDRAM.cursor(), b.orderNVM.cursor()
	dramAhead, nvmAhead := dram.skip(warmAhead), nvm.skip(warmAhead)
	leftDRAM, leftNVM := b.cfg.DRAMLines, b.cfg.NVMLines
	for leftDRAM > 0 || leftNVM > 0 {
		burst := min(b.cfg.DRAMBurst, leftDRAM)
		for range burst {
			t.Warm(b.baseDRAM + dramAhead.next()*mem.LineSize)
			t.Load(b.baseDRAM + dram.next()*mem.LineSize)
		}
		leftDRAM -= burst
		burst = min(b.cfg.NVMBurst, leftNVM)
		for range burst {
			t.Warm(b.baseNVM + nvmAhead.next()*mem.LineSize)
			t.Load(b.baseNVM + nvm.next()*mem.LineSize)
		}
		leftNVM -= burst
	}
	return MultiLatResult{
		ExpectedCT: sim.Time(b.cfg.DRAMLines)*dramLat +
			sim.Time(b.cfg.NVMLines)*nvmLat,
	}
}
