package spike

import (
	"math/rand"
	"testing"
)

// assertUniformLanes requires lanes — Lanes(window) words AppendUniform
// filled at offset 0, stride 1 — to hold UniformTrain(count, window) bit for
// bit: cycle t at bit t%64 of word t/64, and nothing at or beyond the window.
func assertUniformLanes(t *testing.T, lanes []uint64, count, window int) {
	t.Helper()
	train := UniformTrain(count, window)
	for bit := 0; bit < 64*len(lanes); bit++ {
		got, want := lanes[bit>>6]&(1<<uint(bit&63)) != 0, bit < window && train[bit]
		if got != want {
			t.Fatalf("AppendUniform(%d,%d): cycle %d = %v, want %v", count, window, bit, got, want)
		}
	}
}

func TestAppendUniformMatchesUniformTrain(t *testing.T) {
	// The jump-Bresenham closed form must reproduce UniformTrain exactly,
	// spike for spike, for every count at several windows — window 1, the
	// 63/64/65 lane boundary and non-multiples of 64 — and leave the bits
	// past the window zero: the xbar kernel ORs and scans whole lanes.
	for _, window := range []int{1, 7, 63, 64, 65, 100, 128} {
		for count := 0; count <= window; count++ {
			lanes := make([]uint64, Lanes(window))
			AppendUniform(lanes, count, window, 0, 1)
			assertUniformLanes(t, lanes, count, window)
		}
	}
}

func TestAppendUniformStride(t *testing.T) {
	// The strided variant places cycle t of unit u at bit t*stride+u —
	// a timestep-major mask layout. Check a two-unit layout against the
	// per-unit trains.
	const window, units = 64, 2
	stride := 64 * Lanes(units)
	dst := make([]uint64, Lanes(units)*window)
	AppendUniform(dst, 3, window, 0, stride)
	AppendUniform(dst, 64, window, 1, stride)
	t3, tAll := UniformTrain(3, window), UniformTrain(64, window)
	for cyc := 0; cyc < window; cyc++ {
		for u := 0; u < units; u++ {
			bit := cyc*stride + u
			got := dst[bit>>6]&(1<<uint(bit&63)) != 0
			want := t3[cyc]
			if u == 1 {
				want = tAll[cyc]
			}
			if got != want {
				t.Fatalf("strided appendUniform: unit %d cycle %d = %v, want %v", u, cyc, got, want)
			}
		}
	}
}

// TestStepperResetBetweenWindows pins that Reset restores both neuron
// models to freshly-constructed behavior: running a window, resetting, and
// running a second window must emit exactly what a fresh instance emits.
// The xbar kernel reinitializes membrane state per batch item on the same
// assumption.
func TestStepperResetBetweenWindows(t *testing.T) {
	drives := func(seed int64, n int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		d := make([]float64, n)
		for i := range d {
			d[i] = 3 * rng.Float64()
		}
		return d
	}
	run := func(s Stepper, d []float64) []bool {
		out := make([]bool, len(d))
		for i, v := range d {
			out[i] = s.Step(v)
		}
		return out
	}
	mk := map[string]func() Stepper{
		"Neuron":   func() Stepper { return &Neuron{Eta: 1.25} },
		"RCNeuron": func() Stepper { return DefaultRCNeuron(1.25) },
	}
	first, second := drives(1, 64), drives(2, 64)
	for name, newStepper := range mk {
		reused := newStepper()
		run(reused, first) // dirty the internal state
		reused.Reset()
		got := run(reused, second)
		want := run(newStepper(), second)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: after Reset, cycle %d = %v, want fresh behavior %v", name, i, got[i], want[i])
			}
		}
	}
	// Subtracter has a two-input Step but the same reset-to-fresh contract.
	var s Subtracter
	s.Step(false, true) // leave debt behind
	s.Reset()
	if s.PendingBlocks() != 0 {
		t.Errorf("Subtracter: PendingBlocks after Reset = %d, want 0", s.PendingBlocks())
	}
	if !s.Step(true, false) {
		t.Error("Subtracter: positive spike blocked after Reset")
	}
}
