package spike

import (
	"math/rand"
	"testing"
)

// trainsEqual compares a boolean train against a packed train over a
// window, cycle by cycle.
func trainsEqual(t Train, p PackedTrain, window int) bool {
	for i := 0; i < window; i++ {
		want := i < len(t) && t[i]
		if p.Get(i) != want {
			return false
		}
	}
	return true
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Widths deliberately straddle lane boundaries: empty, single cycle,
	// one lane, lane±1, and a multi-lane non-multiple of 64.
	for _, window := range []int{0, 1, 63, 64, 65, 100, 128, 200} {
		for trial := 0; trial < 50; trial++ {
			tr := NewTrain(window)
			for i := range tr {
				tr[i] = rng.Intn(3) == 0
			}
			p := Pack(tr)
			if got, want := len(p), Lanes(window); got != want {
				t.Fatalf("Pack(window %d): %d lanes, want %d", window, got, want)
			}
			if p.Count() != tr.Count() {
				t.Fatalf("Pack(window %d): Count %d, want %d", window, p.Count(), tr.Count())
			}
			if !trainsEqual(tr, p, window) {
				t.Fatalf("Pack(window %d): Get mismatch", window)
			}
			back := p.Unpack(window)
			for i := range tr {
				if back[i] != tr[i] {
					t.Fatalf("Unpack(window %d): cycle %d = %v, want %v", window, i, back[i], tr[i])
				}
			}
		}
	}
}

func TestPackEmptyTrain(t *testing.T) {
	p := Pack(nil)
	if len(p) != 0 || p.Count() != 0 || p.Capacity() != 0 {
		t.Fatalf("Pack(nil) = %v (count %d, capacity %d), want empty", p, p.Count(), p.Capacity())
	}
	if p.Get(0) || p.Get(-1) {
		t.Fatal("empty PackedTrain reports spikes")
	}
	if got := p.Unpack(8).Count(); got != 0 {
		t.Fatalf("Pack(nil).Unpack(8).Count() = %d, want 0", got)
	}
}

func TestUnpackShorterAndLongerWindow(t *testing.T) {
	// A train longer than the target window truncates; shorter
	// zero-extends. Both directions matter because xbar reuses packed
	// scratch buffers across differently-sized windows.
	tr := UniformTrain(50, 100)
	p := Pack(tr)
	short := p.Unpack(40)
	if len(short) != 40 {
		t.Fatalf("Unpack(40) length %d", len(short))
	}
	for i := range short {
		if short[i] != tr[i] {
			t.Fatalf("Unpack(40): cycle %d = %v, want %v", i, short[i], tr[i])
		}
	}
	long := p.Unpack(130)
	if len(long) != 130 {
		t.Fatalf("Unpack(130) length %d", len(long))
	}
	for i := range long {
		want := i < 100 && tr[i]
		if long[i] != want {
			t.Fatalf("Unpack(130): cycle %d = %v, want %v", i, long[i], want)
		}
	}
}

func TestPackedUniformMatchesPack(t *testing.T) {
	// The jump-Bresenham closed form must reproduce UniformTrain exactly,
	// spike for spike, for every count at several windows (including
	// window 1 and non-multiples of 64).
	for _, window := range []int{1, 7, 63, 64, 65, 100, 128} {
		for count := -2; count <= window+2; count++ {
			want := Pack(UniformTrain(count, window))
			got := PackedUniform(count, window)
			if len(got) != len(want) {
				t.Fatalf("PackedUniform(%d,%d): %d lanes, want %d", count, window, len(got), len(want))
			}
			for l := range got {
				if got[l] != want[l] {
					t.Fatalf("PackedUniform(%d,%d): lane %d = %#x, want %#x", count, window, l, got[l], want[l])
				}
			}
		}
	}
}

func TestPackedTrainCanonical(t *testing.T) {
	// Bits at or beyond the window must be zero — the xbar kernels
	// popcount whole lanes and rely on it.
	for _, window := range []int{1, 63, 65, 100} {
		p := PackedUniform(window, window) // all-ones train
		if p.Count() != window {
			t.Fatalf("PackedUniform(%d,%d).Count() = %d", window, window, p.Count())
		}
		for i := window; i < p.Capacity(); i++ {
			if p.Get(i) {
				t.Fatalf("PackedUniform(%d,%d): stray bit at cycle %d", window, window, i)
			}
		}
	}
}

func TestAppendUniformStride(t *testing.T) {
	// The strided variant places cycle t of unit u at bit t*stride+u —
	// a timestep-major mask layout. Check a two-unit layout against the
	// per-unit packed trains.
	const window, units = 64, 2
	stride := 64 * Lanes(units)
	dst := make([]uint64, Lanes(units)*window)
	AppendUniform(dst, 3, window, 0, stride)
	AppendUniform(dst, 64, window, 1, stride)
	t3, tAll := PackedUniform(3, window), PackedUniform(64, window)
	for cyc := 0; cyc < window; cyc++ {
		for u := 0; u < units; u++ {
			bit := cyc*stride + u
			got := dst[bit>>6]&(1<<uint(bit&63)) != 0
			want := t3.Get(cyc)
			if u == 1 {
				want = tAll.Get(cyc)
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
// The packed xbar kernels reinitialize membrane state per batch item on
// the same assumption.
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
