package trainer

// forwardAVX2 is layerForward's AVX2 body on the first 4·quads columns:
// out[j] = ReLU(Σₖ w[rows[k]+j]·xs[k]) over k < nrows in ascending order,
// each sum from +0.
//
//go:noescape
func forwardAVX2(out, w *float64, rows *int, xs *float64, nrows, quads int)

// backwardAVX2 is backward's AVX2 body on the first 4·groups rows of a
// hidden layer whose rows are stride words apart, over their first
// 4·quads columns: w[i][j] −= lg[j]·x[i], and next[i] = Σⱼ w[i][j]·grad[j]
// over the weights as they were, in ascending j from +0, not gated.
//
//go:noescape
func backwardAVX2(w, lg, grad, x, next *float64, groups, quads, stride int)

// updateAVX2 is update's AVX2 body on the first 4·quads columns:
// w[rows[k]+j] −= lg[j]·xs[k] for k < nrows.
//
//go:noescape
func updateAVX2(w, lg *float64, rows *int, xs *float64, nrows, quads int)
