package cache

// hostPrefetch asks the host CPU to pull the line holding addr into its
// caches (PREFETCHT0). It never faults and has no effect a program can
// observe except timing, so any address is safe to pass.
//
//go:noescape
func hostPrefetch(addr uintptr)
