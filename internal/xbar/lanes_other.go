//go:build !amd64

package xbar

func lanesAVX2(drv, rows, lanes *uint64, counts *int, present, trains, silent *uint64, fired *uint16, nrows, window, half int, eta uint64) {
	panic("xbar: the AVX2 lane walk runs on amd64 only")
}

func floatWalkAVX2(drv, rows *float64, counts *int, trains, live *uint64, fired *int64, nrows, window, blocks int, eta float64) {
	panic("xbar: the AVX2 float walk runs on amd64 only")
}

func referenceAVX2(dst *int, w *uint64, src *int, prows, stride, cols, batch, window int) {
	panic("xbar: the AVX2 reference kernel runs on amd64 only")
}

func epilogueAVX2(dst *int, quads int, m, window uint64) {
	panic("xbar: the AVX2 reference epilogue runs on amd64 only")
}

func quantizeAVX2(dst *int, src *float64, quads int, top float64) {
	panic("xbar: the AVX2 quantize runs on amd64 only")
}
