//go:build !amd64

package xbar

func lanesAVX2(drv, rows, lanes *uint64, counts *uint16, present, trains, silent *uint64, fired *uint16, nrows, window, half int, eta uint64) {
	panic("xbar: the AVX2 lane walk runs on amd64 only")
}

func floatWalkAVX2(drv, rows *float64, counts *uint16, trains, live *uint64, fired *int64, nrows, window, blocks int, eta float64) {
	panic("xbar: the AVX2 float walk runs on amd64 only")
}

func referenceAVX2(dst, w *uint64, src *uint16, prows, stride, cols, batch int, keep uint64) {
	panic("xbar: the AVX2 reference kernel runs on amd64 only")
}

func epilogueAVX2(dst *uint16, src *uint64, quads int, m, window uint64) {
	panic("xbar: the AVX2 reference epilogue runs on amd64 only")
}

func quantizeAVX2(dst *uint16, rows *[]float64, nrows, quads, stride int, top float64) {
	panic("xbar: the AVX2 quantize runs on amd64 only")
}
