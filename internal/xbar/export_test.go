package xbar

import "fpsa/internal/hostcpu"

// HasAVX2 reports whether this CPU runs the AVX2 bodies at all.
var HasAVX2 = hostcpu.AVX2

// UseAVX2Bodies switches every AVX2 body — the integer-lane walk, the float
// walk, the reference kernel, its epilogue and Quantize — on or off for
// this test binary, and returns the function that restores the previous
// setting.
// Tests outside the package use it to run whole models through the
// portable bodies; callers must not run kernels concurrently with a switch.
func UseAVX2Bodies(on bool) (restore func()) { return useLaneBody(on) }

// ShiftConductance adds by to the positive conductance of cell (i, j) and
// rederives the kernel's structural facts from the result, as a draw pass
// does, so white-box tests can move one cell off its ideal magnitude.
func (c *Crossbar) ShiftConductance(i, j int, by float64) {
	c.posG[i*c.cols+j] += by
	c.rederive()
}

// NegativeFreeShortcut reports whether SimulateCountsBatch answers this
// crossbar's walked columns through the reference kernel under the
// current η.
func (c *Crossbar) NegativeFreeShortcut() bool {
	return c.negFree && c.laneEligible()
}
