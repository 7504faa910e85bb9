package spike

import "testing"

// FuzzPackRoundTrip drives AppendUniform with arbitrary counts and window
// widths: filling Lanes(window) words at offset 0, stride 1 must reproduce
// UniformTrain(count, window) bit for bit and set nothing at or beyond the
// window. The count is the number of bits the pattern sets within the
// window, as it was when this target round-tripped the packed-train codec
// (deleted with its last caller; the name and the seed corpus under
// testdata/fuzz/FuzzPackRoundTrip stay, so the committed seeds — windows 1,
// 64 and 65, the lane boundaries — keep running). CI runs a short -fuzztime
// smoke pass.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0x01}, 1)
	f.Add([]byte{0xff, 0xff}, 64)
	f.Add([]byte{0xaa, 0x55, 0x00, 0x10}, 100)
	f.Fuzz(func(t *testing.T, pattern []byte, window int) {
		if window < 0 || window > 1<<12 {
			t.Skip()
		}
		count := 0
		for i := 0; i < window; i++ {
			if len(pattern) > 0 && pattern[i%len(pattern)]&(1<<uint(i&7)) != 0 {
				count++
			}
		}
		lanes := make([]uint64, Lanes(window))
		AppendUniform(lanes, count, window, 0, 1)
		assertUniformLanes(t, lanes, count, window)
	})
}
