package main

import "time"

// The benchmark was calibrated on a 2-vCPU VM whose physical cores other
// tenants share. When their threads run on those cores, the emulator's
// integer code, which keeps several independent operations in flight per
// cycle, slows by up to 2x in phases that last from seconds to minutes,
// while latency-bound loops (pointer chases through L2 or DRAM) slow by
// 10-20%. Raw host times of identical runs therefore spread by 15-30%, far
// past any useful regression bound.
//
// Every timing is normalized instead. The phaser runs this reference kernel
// at every phase boundary and scales a phase's host time by refNominal over
// the mean of the kernel times at its boundaries. The kernel keeps eight
// independent multiply, xor-shift and add-shift streams in flight, so it
// competes for the execution units the way the emulator does and slows
// with it. A slower host slows unit and reference alike; a slower program
// slows only the unit (README: Normalization).

const (
	refIters = 400_000
	// refNominal is the reference kernel's typical time on the calibration
	// VM, so normalized times read as seconds on that VM when it is idle.
	refNominal = 950 * time.Microsecond
)

// refSink keeps the compiler from discarding the kernel.
var refSink uint64

// refTime runs the reference kernel once and returns its host time.
func refTime() time.Duration {
	start := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for n := 0; n < refIters; n++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e<<13 | 1
		f ^= f<<7 | 3
		g += g>>3 + 5
		h += h>>5 + 7
	}
	refSink += a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
	return time.Since(start)
}
