// Package spike implements FPSA's spiking schema (paper §4.2): numbers are
// carried as spike counts inside a sampling window of Γ cycles, processed by
// integrate-and-fire neuron circuits and spike subtracters. The package
// provides both the idealized functional semantics the paper derives
// (Eq. 1-6: a PE computes ReLU of a vector-matrix product) and a
// circuit-faithful RC voltage-domain neuron used to validate the derivation.
package spike

// Train is a binary spike train over a sampling window; Train[t] reports
// whether a spike occurs in cycle t.
type Train []bool

// NewTrain returns an empty (all-zero) train of the given window length.
func NewTrain(window int) Train { return make(Train, window) }

// Count returns the number of spikes in the train — the value the train
// encodes (a number in [0, Γ], representing [0,1] after normalization).
func (t Train) Count() int {
	n := 0
	for _, s := range t {
		if s {
			n++
		}
	}
	return n
}

// Window returns the sampling-window length Γ.
func (t Train) Window() int { return len(t) }

// UniformTrain returns a train of the given window with count spikes spread
// as evenly as possible — the pattern SMB spike generators emit when
// decoding a stored count back into a train (§4.3). Count is clamped to
// [0, window].
func UniformTrain(count, window int) Train {
	if count < 0 {
		count = 0
	}
	if count > window {
		count = window
	}
	t := NewTrain(window)
	if count == 0 {
		return t
	}
	// Bresenham-style even spacing: spike at cycle i when the running
	// error accumulator crosses the window.
	acc := 0
	for i := range t {
		acc += count
		if acc >= window {
			acc -= window
			t[i] = true
		}
	}
	return t
}

// Clamp returns v limited to the representable count range [0, window].
func Clamp(v, window int) int {
	if v < 0 {
		return 0
	}
	if v > window {
		return window
	}
	return v
}
