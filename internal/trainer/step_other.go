//go:build !amd64

package trainer

func forwardAVX2(out, w *float64, rows *int, xs *float64, nrows, quads int) {
	panic("trainer: the AVX2 forward pass runs on amd64 only")
}

func backwardAVX2(w, lg, grad, x, next *float64, groups, quads, stride int) {
	panic("trainer: the AVX2 backward pass runs on amd64 only")
}

func updateAVX2(w, lg *float64, rows *int, xs *float64, nrows, quads int) {
	panic("trainer: the AVX2 update runs on amd64 only")
}
