package spike

import "math/bits"

// PackedTrain is a spike train bit-packed into 64-cycle lanes: bit t%64 of
// word t/64 reports a spike in cycle t. It is the storage format behind the
// sparse spiking kernels in internal/xbar — a whole Γ=64 window is one
// machine word, so counting spikes is a popcount and scanning for the next
// spike is a trailing-zeros instruction. Bits at or beyond the window are
// always zero (canonical form); Pack and PackedUniform produce canonical
// trains, and the xbar kernels rely on it.
type PackedTrain []uint64

// Lanes returns the number of 64-bit words needed to hold a window of n
// cycles.
func Lanes(n int) int { return (n + 63) / 64 }

// Pack converts a boolean train to its packed form. The result has
// Lanes(len(t)) words and is canonical.
func Pack(t Train) PackedTrain {
	p := make(PackedTrain, Lanes(len(t)))
	for i, s := range t {
		if s {
			p[i>>6] |= 1 << uint(i&63)
		}
	}
	return p
}

// Unpack expands the packed train back to a boolean train of the given
// window length. Cycles beyond the packed capacity read as no-spike, so
// unpacking into a longer window zero-extends.
func (p PackedTrain) Unpack(window int) Train {
	t := NewTrain(window)
	for i := range t {
		if p.Get(i) {
			t[i] = true
		}
	}
	return t
}

// Count returns the number of spikes — one popcount per lane.
func (p PackedTrain) Count() int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// Get reports whether a spike occurs in cycle t. Out-of-range cycles
// (negative or beyond the packed capacity) read as no-spike.
func (p PackedTrain) Get(t int) bool {
	return t >= 0 && t>>6 < len(p) && p[t>>6]&(1<<uint(t&63)) != 0
}

// Capacity returns the number of cycles the packed train can address —
// always a multiple of 64, at least the window it was packed from.
func (p PackedTrain) Capacity() int { return len(p) * 64 }

// PackedUniform returns the packed form of UniformTrain(count, window)
// without materializing the boolean train. Instead of walking every cycle
// it jumps directly between spikes with the closed form of the Bresenham
// accumulator: from residue acc, the next spike is n = ⌈(window-acc)/count⌉
// cycles away and leaves residue acc + n·count − window. The result is
// bit-identical to Pack(UniformTrain(count, window)) — pinned by
// TestPackedUniformMatchesPack and FuzzPackRoundTrip.
func PackedUniform(count, window int) PackedTrain {
	count = Clamp(count, window)
	p := make(PackedTrain, Lanes(window))
	AppendUniform(p, count, window, 0, 1)
	return p
}

// AppendUniform OR-s the spikes of UniformTrain(count, window) into dst,
// placing cycle t at bit (t*stride+offset)%64 of word (t*stride+offset)/64.
// With offset 0, stride 1 this fills a single packed train — how xbar
// builds its per-window table of uniform trains; other offsets and strides
// interleave several trains in one buffer. count must already be clamped
// to [0, window].
func AppendUniform(dst []uint64, count, window, offset, stride int) {
	if count <= 0 {
		return
	}
	acc := 0
	t := -1
	for {
		// Next spike is the smallest n ≥ 1 with acc + n·count ≥ window.
		n := (window - acc + count - 1) / count
		t += n
		if t >= window {
			return
		}
		acc += n*count - window
		bit := t*stride + offset
		dst[bit>>6] |= 1 << uint(bit&63)
	}
}
