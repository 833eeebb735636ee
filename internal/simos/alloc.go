package simos

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/machine"
)

// allocAlign is the allocation granularity (one page of a 4 KiB-aligned
// bump allocator; the paper's benchmarks use 2 MiB hugepages, which the
// address-space model subsumes since TLB walks are not simulated).
const allocAlign = 4096

// heapBase offsets allocations within a node's address stripe so that
// address 0 stays invalid (NULL).
const heapBase = 1 << 20

// Malloc allocates size bytes of simulated memory on the process's default
// policy node and returns the base address (malloc).
func (p *Process) Malloc(size uintptr) (uintptr, error) {
	return p.MallocOnNode(size, p.defaultNode())
}

// MallocOnNode allocates size bytes on a specific NUMA node
// (numa_alloc_onnode), the primitive Quartz's virtual topology uses to back
// pmalloc with remote DRAM (§3.3).
func (p *Process) MallocOnNode(size uintptr, node int) (uintptr, error) {
	if node < 0 || node >= len(p.heap) {
		return 0, fmt.Errorf("simos: malloc on invalid node %d", node)
	}
	if size == 0 {
		size = 1
	}
	rounded := (size + allocAlign - 1) &^ (allocAlign - 1)
	// Compare against the room left rather than summing, so neither a size
	// whose rounding wraps (rounded < size) nor one that would wrap the bump
	// pointer passes.
	room := uintptr(1)<<machine.NodeShift - heapBase - p.heap[node]
	if rounded < size || rounded > room {
		return 0, fmt.Errorf("simos: node %d out of simulated memory (%d bytes requested)", node, size)
	}
	base := p.mach.NodeBase(node) + heapBase + p.heap[node]
	p.heap[node] += rounded
	return base, nil
}

// Free releases an allocation. The bump allocator does not recycle address
// space — simulated addresses are unbounded integers, so reuse is
// unnecessary — but the call is kept for API fidelity with malloc/free and
// pmalloc/pfree.
func (p *Process) Free(addr uintptr) {
	_ = addr
}

// NodeOf reports the NUMA node owning a simulated address.
func (p *Process) NodeOf(addr uintptr) int { return p.mach.HomeNode(addr) }
