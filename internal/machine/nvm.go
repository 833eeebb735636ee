package machine

import (
	"fmt"
	"sort"
	"strings"

	"github.com/quartz-emu/quartz/internal/sim"
)

// NVMProfile bundles calibrated NVM device characteristics for the
// asymmetric read/write model: the read/write latency pair, the device's
// internal access granularity (per-line channel occupancy amplification),
// aggregate read/write bandwidth, and — because real NVM write bandwidth is
// not a constant — the write-bandwidth-by-writer-thread collapse curve.
// Profiles feed three existing mechanisms rather than adding new ones:
// latencies become core.Config.NVMLatency/NVMWriteLatency (epoch delay
// injection), bandwidths become the token-bucket throttle targets, and the
// curve reprograms the write throttle as threads register. See
// doc/asymmetry.md for the calibration sources.
type NVMProfile struct {
	// Name is the CLI-facing identifier (-nvm-profile).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// ReadLatency is the target emulated NVM read latency.
	ReadLatency sim.Time
	// WriteLatency is the target emulated NVM store latency (the store-side
	// model's knob). It may be below DRAM latency — Optane's ADR-buffered
	// stores complete faster than its reads — in which case the store model
	// injects nothing (the emulator cannot speed DRAM up).
	WriteLatency sim.Time
	// AccessGranularity is the device's internal access granularity in
	// bytes (mem.Config.AccessGranularity); 0 keeps the line size.
	AccessGranularity int
	// ReadBandwidth is the aggregate device read bandwidth in bytes/sec
	// (0 = unthrottled).
	ReadBandwidth float64
	// WriteBandwidth is the aggregate device write bandwidth in bytes/sec
	// with the profile's best-case writer count (0 = follows ReadBandwidth).
	WriteBandwidth float64
	// WriteBandwidthByThreads, when non-empty, is the write-bandwidth
	// collapse curve: entry i is the aggregate write bandwidth in bytes/sec
	// sustained by i+1 concurrent writer threads. Writer counts beyond the
	// table clamp to the last entry.
	WriteBandwidthByThreads []float64
}

// ApplyToMem overlays the profile's device-side characteristics onto a
// machine memory configuration (currently the access granularity).
func (p NVMProfile) ApplyToMem(mc *Config) {
	if p.AccessGranularity > 0 {
		mc.Mem.AccessGranularity = p.AccessGranularity
	}
}

// EmulatorWriteCurve returns WriteBandwidthByThreads indexed the way
// core.Config.WriteBandwidthByThreads is: by registered threads, which
// include the application's non-writing main thread. The 1-writer entry is
// repeated in front, so T writer threads (T+1 registered) land on the
// T-writer entry. A profile without a curve yields nil.
func (p NVMProfile) EmulatorWriteCurve() []float64 {
	curve := p.WriteBandwidthByThreads
	if len(curve) == 0 {
		return nil
	}
	return append([]float64{curve[0]}, curve...)
}

// Calibrated NVM profiles. Numbers follow the measured characterizations in
// PAPERS.md — "An Empirical Guide to the Behavior and Use of Scalable
// Persistent Memory" (Optane DC PMM, 6 interleaved DIMMs) — and the PCM
// literature for the write-dominated profile.
var nvmProfiles = []NVMProfile{
	{
		// Empirical Guide: random read latency ~305 ns (2-3x DRAM), store
		// latency ~94 ns (stores complete into the ADR write buffer, so
		// writes are *faster* than reads until bandwidth saturates), 256 B
		// internal XPLine granularity, peak read ~39.4 GB/s vs peak write
		// ~13.9 GB/s, and write bandwidth that peaks near 4 concurrent
		// writers before contention on the XPBuffer collapses it.
		Name:              "optane-dcpmm",
		Description:       "Intel Optane DC PMM (Empirical Guide): reads slower than writes, 256 B granularity, write bandwidth collapses past 4 writers",
		ReadLatency:       sim.FromNanos(305),
		WriteLatency:      sim.FromNanos(94),
		AccessGranularity: 256,
		ReadBandwidth:     39.4e9,
		WriteBandwidth:    13.9e9,
		WriteBandwidthByThreads: []float64{
			5.1e9,  // 1 writer
			9.6e9,  // 2
			12.5e9, // 3
			13.9e9, // 4 — the peak
			13.2e9, // 5
			12.4e9, // 6
			11.2e9, // 7
			10.1e9, // 8
			9.0e9,  // 9
			8.1e9,  // 10
			7.3e9,  // 11
			6.6e9,  // 12
			6.1e9,  // 13
			5.6e9,  // 14
			5.2e9,  // 15
			4.9e9,  // 16+ (clamped)
		},
	},
	{
		// A phase-change-memory-style device: write latency far above read
		// latency (the classic asymmetry the Koshiba et al. store model
		// targets), line-sized access granularity, modest flat bandwidth.
		Name:           "pcm",
		Description:    "PCM-style device: writes ~4x slower than reads, flat bandwidth",
		ReadLatency:    sim.FromNanos(170),
		WriteLatency:   sim.FromNanos(680),
		ReadBandwidth:  25.0e9,
		WriteBandwidth: 3.0e9,
	},
}

// NVMProfileNames lists the profile identifiers, sorted.
func NVMProfileNames() []string {
	names := make([]string, 0, len(nvmProfiles))
	for _, p := range nvmProfiles {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// NVMProfileByName resolves a profile identifier; the error names the known
// profiles so CLI typos fail helpfully.
func NVMProfileByName(name string) (NVMProfile, error) {
	for _, p := range nvmProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	return NVMProfile{}, fmt.Errorf("machine: unknown NVM profile %q (known: %s)",
		name, strings.Join(NVMProfileNames(), ", "))
}
