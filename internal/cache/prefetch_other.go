//go:build !amd64

package cache

// hostPrefetch is a no-op where no prefetch instruction is wired up; Warm
// then only costs its set computation.
func hostPrefetch(addr uintptr) {}
