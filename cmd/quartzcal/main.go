// Command quartzcal is the bandwidth-calibration helper of §3.1: for each
// thermal-control register value it measures the maximum attainable memory
// bandwidth by streaming through a large region with several SSE-style
// streaming threads, and prints the table the user-mode library later uses
// to map a target NVM bandwidth to a register value.
//
// Usage:
//
//	quartzcal -preset sandybridge -points 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quartzcal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		presetFlag = fs.String("preset", "sandybridge", "sandybridge|ivybridge|haswell")
		points     = fs.Int("points", 16, "number of register values to calibrate (2-4096)")
		lines      = fs.Int("lines", 1<<16, "stream length in cache lines (at least one per thread)")
		threads    = fs.Int("threads", 4, "streaming threads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every flag is validated before any machine is built: a bad value exits
	// 2 in milliseconds.
	preset, err := machine.PresetByName(*presetFlag)
	switch {
	case err != nil:
		err = fmt.Errorf("-preset: %w", err)
	case *points < 2 || *points > mem.RegisterMax+1:
		err = fmt.Errorf("-points %d: must be in [2, %d]", *points, mem.RegisterMax+1)
	case *threads < 1:
		err = fmt.Errorf("-threads %d: must be >= 1", *threads)
	case *lines < *threads:
		err = fmt.Errorf("-lines %d: must be >= -threads (%d)", *lines, *threads)
	}
	if err != nil {
		fmt.Fprintf(stderr, "quartzcal: %v\n", err)
		return 2
	}

	table, err := calibrate(preset, *points, *lines, *threads)
	if err != nil {
		fmt.Fprintf(stderr, "quartzcal: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# bandwidth calibration for %v\n", preset)
	fmt.Fprintf(stdout, "# register  bytes/sec\n")
	for _, p := range table {
		fmt.Fprintf(stdout, "%6d  %.4g\n", p.register, p.bandwidth)
	}
	for _, target := range []float64{1e9, 5e9, 10e9, 20e9} {
		reg, err := table.registerFor(target)
		if err != nil {
			fmt.Fprintf(stderr, "quartzcal: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# target %.3g B/s -> register %d\n", target, reg)
	}
	return 0
}

// calibrate measures attainable bandwidth per register value, each on a
// fresh machine (cold caches), exactly as the paper's helper program does.
// points must be in [2, RegisterMax+1], so the register step is at least 1.
func calibrate(preset machine.Preset, points, lines, threads int) (calTable, error) {
	var table calTable
	step := (mem.RegisterMax + 1) / points
	for reg := step; reg <= mem.RegisterMax+1; reg += step {
		r := uint16(min(reg, mem.RegisterMax))
		env, err := bench.NewEnv(bench.EnvConfig{
			Preset: preset, Mode: bench.Native, Lookahead: 5 * sim.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		for _, sock := range env.Mach.Sockets() {
			if err := sock.Ctrl.SetThrottle(r); err != nil {
				return nil, err
			}
		}
		var res bench.StreamResult
		err = env.Run(func(e *bench.Env, th *simos.Thread) {
			var rerr error
			res, rerr = bench.RunStream(e, th, bench.StreamConfig{
				Lines: lines, Threads: threads, Node: 0,
			})
			if rerr != nil {
				th.Failf("%v", rerr)
			}
		})
		if err != nil {
			return nil, err
		}
		table = append(table, calPoint{register: r, bandwidth: res.BytesPerSec})
	}
	return table, nil
}

// calPoint is one row of the calibration table: the measured attainable
// bandwidth (bytes/sec) at a throttle-register setting.
type calPoint struct {
	register  uint16
	bandwidth float64
}

// calTable maps throttle-register values to measured bandwidth, in
// ascending register order (the order calibrate measures them in).
type calTable []calPoint

// registerFor returns the smallest register value whose measured bandwidth
// reaches target, interpolating linearly between calibration points and
// clamping to the table's ends.
func (t calTable) registerFor(target float64) (uint16, error) {
	if len(t) == 0 {
		return 0, errors.New("empty calibration table")
	}
	if target <= t[0].bandwidth {
		return t[0].register, nil
	}
	for i := 1; i < len(t); i++ {
		lo, hi := t[i-1], t[i]
		if target <= hi.bandwidth {
			span := hi.bandwidth - lo.bandwidth
			if span <= 0 {
				return hi.register, nil
			}
			frac := (target - lo.bandwidth) / span
			return lo.register + uint16(frac*float64(hi.register-lo.register)+0.5), nil
		}
	}
	return t[len(t)-1].register, nil
}
