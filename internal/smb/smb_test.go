package smb

import (
	"testing"

	"fpsa/internal/device"
)

func TestBlocksNeeded(t *testing.T) {
	p := device.Params45nm
	cases := []struct {
		signals, window, want int
	}{
		{0, 64, 0},
		{1, 64, 1},
		{2730, 64, 1}, // exactly one block's worth at 6 bits
		{2731, 64, 2}, // one over
		{256, 64, 1},  // a PE output vector
		{16384, 2, 1}, // 1-bit counts fill the full 16 Kb
		{16385, 2, 2},
	}
	for _, tc := range cases {
		if got := BlocksNeeded(p, tc.signals, tc.window); got != tc.want {
			t.Errorf("BlocksNeeded(%d,%d) = %d, want %d", tc.signals, tc.window, got, tc.want)
		}
	}
}
