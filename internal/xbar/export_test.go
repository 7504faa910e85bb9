package xbar

// HasAVX2 reports whether this CPU runs the AVX2 bodies at all.
var HasAVX2 = hasAVX2

// UseAVX2Bodies switches every AVX2 body — the integer-lane walk, the float
// walk, the reference kernel, its epilogue and Quantize — on or off for
// this test binary, and returns the function that restores the previous
// setting.
// Tests outside the package use it to run whole models through the
// portable bodies; callers must not run kernels concurrently with a switch.
func UseAVX2Bodies(on bool) (restore func()) { return useLaneBody(on) }
