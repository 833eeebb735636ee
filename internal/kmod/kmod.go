// Package kmod is the emulator's "kernel module" (§3.1): the privileged
// layer that programs the DRAM thermal-control registers through PCI
// configuration space, programs the performance-monitoring counters with the
// family's Table 1 events, and enables user-mode rdpmc so the library can
// read counters without trapping.
package kmod

import (
	"errors"
	"fmt"
	"sort"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
)

// Module is an opened kernel-module handle for one machine.
type Module struct {
	mach       *machine.Machine
	userRDPMC  bool
	programmed bool
}

// Open loads the kernel module on mach.
func Open(mach *machine.Machine) (*Module, error) {
	if mach == nil {
		return nil, errors.New("kmod: nil machine")
	}
	return &Module{mach: mach}, nil
}

// ctrl resolves socket's memory controller.
func (k *Module) ctrl(socket int) (*mem.Controller, error) {
	socks := k.mach.Sockets()
	if socket < 0 || socket >= len(socks) {
		return nil, fmt.Errorf("kmod: socket %d out of range [0,%d)", socket, len(socks))
	}
	return socks[socket].Ctrl, nil
}

// SetThrottle programs socket's THRT_PWR_DIMM thermal-control register.
func (k *Module) SetThrottle(socket int, reg uint16) error {
	c, err := k.ctrl(socket)
	if err != nil {
		return err
	}
	if err := c.SetThrottle(reg); err != nil {
		return fmt.Errorf("kmod: socket %d: %w", socket, err)
	}
	return nil
}

// SetThrottleAll programs every socket's throttle registers.
func (k *Module) SetThrottleAll(reg uint16) error {
	for s := range k.mach.Sockets() {
		if err := k.SetThrottle(s, reg); err != nil {
			return err
		}
	}
	return nil
}

// SetReadThrottle programs only socket's read-path throttle register.
func (k *Module) SetReadThrottle(socket int, reg uint16) error {
	c, err := k.ctrl(socket)
	if err != nil {
		return err
	}
	if err := c.SetReadThrottle(reg); err != nil {
		return fmt.Errorf("kmod: socket %d: %w", socket, err)
	}
	return nil
}

// SetWriteThrottle programs only socket's write-path throttle register,
// enabling the read/write bandwidth asymmetry of §2.1.
func (k *Module) SetWriteThrottle(socket int, reg uint16) error {
	c, err := k.ctrl(socket)
	if err != nil {
		return err
	}
	if err := c.SetWriteThrottle(reg); err != nil {
		return fmt.Errorf("kmod: socket %d: %w", socket, err)
	}
	return nil
}

// ThrottleForBandwidth computes the register value capping one socket's
// total memory bandwidth closest to target bytes/sec (the analytic inverse
// of the linear throttle ramp; CalibrationTable interpolation is available
// through the calibration helper for measured curves).
func (k *Module) ThrottleForBandwidth(socket int, target float64) (uint16, error) {
	c, err := k.ctrl(socket)
	if err != nil {
		return 0, err
	}
	return c.RegisterForBandwidth(target), nil
}

// ProgramCounters programs each core's PMC bank with the family's Table 1
// events and starts counting.
func (k *Module) ProgramCounters() error {
	f := k.mach.Family()
	for _, e := range perf.EventsFor(f) {
		if _, ok := perf.EventName(f, e); !ok {
			return fmt.Errorf("kmod: family %v cannot count %v", f, e)
		}
	}
	for _, c := range k.mach.Cores() {
		c.Counters().SetEnabled(true)
	}
	k.programmed = true
	return nil
}

// Programmed reports whether counters have been programmed.
func (k *Module) Programmed() bool { return k.programmed }

// EnableUserRDPMC allows user-mode rdpmc access (CR4.PCE).
func (k *Module) EnableUserRDPMC() { k.userRDPMC = true }

// UserRDPMCEnabled reports whether user-mode counter reads are enabled.
func (k *Module) UserRDPMCEnabled() bool { return k.userRDPMC }

// CalPoint is one row of the saved bandwidth-calibration table: the measured
// attainable bandwidth (bytes/sec) at a throttle-register setting.
type CalPoint struct {
	Register  uint16
	Bandwidth float64
}

// CalibrationTable maps throttle-register values to measured bandwidth, as
// produced by the calibration helper (cmd/quartzcal) that streams through a
// large region with SSE instructions per register value.
type CalibrationTable []CalPoint

// Validate checks the table is non-empty and sorted by register.
func (t CalibrationTable) Validate() error {
	if len(t) == 0 {
		return errors.New("kmod: empty calibration table")
	}
	if !sort.SliceIsSorted(t, func(i, j int) bool { return t[i].Register < t[j].Register }) {
		return errors.New("kmod: calibration table not sorted by register value")
	}
	return nil
}

// RegisterFor returns the smallest register value whose measured bandwidth
// reaches target, interpolating linearly between calibration points.
func (t CalibrationTable) RegisterFor(target float64) (uint16, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if target <= t[0].Bandwidth {
		return t[0].Register, nil
	}
	for i := 1; i < len(t); i++ {
		lo, hi := t[i-1], t[i]
		if target <= hi.Bandwidth {
			span := hi.Bandwidth - lo.Bandwidth
			if span <= 0 {
				return hi.Register, nil
			}
			frac := (target - lo.Bandwidth) / span
			return lo.Register + uint16(frac*float64(hi.Register-lo.Register)+0.5), nil
		}
	}
	return t[len(t)-1].Register, nil
}

// MaxBandwidth reports the largest measured bandwidth in the table.
func (t CalibrationTable) MaxBandwidth() float64 {
	var max float64
	for _, p := range t {
		if p.Bandwidth > max {
			max = p.Bandwidth
		}
	}
	return max
}
