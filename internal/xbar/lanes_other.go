//go:build !amd64

package xbar

// hasAVX2 is false off amd64: the lane walk runs its portable body.
const hasAVX2 = false

func lanesAVX2(drv, rows, present, trains, silent *uint64, fired *uint16, window, blocks int, eta uint64) {
	panic("xbar: the AVX2 lane walk runs on amd64 only")
}
