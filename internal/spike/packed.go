package spike

// Lanes returns the number of 64-bit words needed to hold a window of n
// cycles bit-packed: cycle t at bit t%64 of word t/64, so a whole Γ=64
// window is one machine word and scanning for the next spike is a
// trailing-zeros instruction — the format behind the spiking kernel in
// internal/xbar.
func Lanes(n int) int { return (n + 63) / 64 }

// AppendUniform OR-s the spikes of UniformTrain(count, window) into dst,
// placing cycle t at bit (t*stride+offset)%64 of word (t*stride+offset)/64.
// With offset 0, stride 1 this fills a single packed train — how xbar
// builds its per-window table of uniform trains; other offsets and strides
// interleave several trains in one buffer. count must already be clamped
// to [0, window].
//
// It never materializes the boolean train: instead of walking every cycle
// it jumps directly between spikes with the closed form of the Bresenham
// accumulator — from residue acc, the next spike is n = ⌈(window-acc)/count⌉
// cycles away and leaves residue acc + n·count − window. The result is
// UniformTrain bit for bit, with no bit set at or beyond the window (pinned
// by TestAppendUniformMatchesUniformTrain and FuzzPackRoundTrip); the xbar
// kernel relies on both.
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
