package xbar

// Quantize writes the spike count of each feature of rows into counts, the
// rows back to back: every row must be len(counts)/len(rows) features
// long. A count is round(f·Γ) clamped to [0, Γ], halves away from zero as
// math.Round rounds them, for a window 0 ≤ Γ ≤ MaxWindow — every
// programmed crossbar's. It is the spike encoding every PE input gets (the
// count of a uniform train in the window Γ, paper §4.2).
//
// The portable body clamps in float64 before converting: Go leaves
// converting ±Inf, NaN or a value at or past 2^63 to int to the platform
// (amd64 yields the minimum int, which would clamp to 0 where arm64
// saturates to Γ), so a huge or infinite feature gives Γ on every
// platform, and NaN gives 0. Between the clamps, 0 < x < Γ, it rounds
// without math.Round (a software routine on amd64): t = int(x) truncates,
// and x − t is exact — by Sterbenz's lemma when t ≥ 1, as x itself when
// t = 0 — so comparing it with ½ rounds as math.Round does.
//
// With AVX2 (laneAVX2), one quantizeAVX2 call answers every row's features
// four at a time and the portable loop each row's last len mod 4. It
// computes the same numbers:
// x = f·Γ is the same product; max(x, +0) with x as the first operand maps
// NaN and −0 to +0 (MAXPD returns its second operand when either is NaN or
// both are zero) and min with Γ then gives [0, Γ], which is exactly the
// portable body's two clamps; truncation to int32 is exact below 2^31;
// x − t is the same exact difference; and t + 1 is exact in float64.
func Quantize(counts []uint16, rows [][]float64, window int) {
	if len(rows) == 0 {
		return
	}
	n := len(counts) / len(rows)
	for _, f := range rows {
		if len(f) != n {
			panic("xbar: Quantize rows of unequal length")
		}
	}
	head := 0
	if laneAVX2 && n >= 4 {
		head = n &^ 3
		quantizeAVX2(&counts[0], &rows[0], len(rows), head/4, 2*n, float64(window))
	}
	if head == n {
		return
	}
	for b, f := range rows {
		quantizeTail(counts[b*n+head:(b+1)*n], f[head:], window)
	}
}

// quantizeTail is Quantize's portable body on one row's features.
func quantizeTail(counts []uint16, features []float64, window int) {
	top := float64(window)
	for i, f := range features {
		switch x := f * top; {
		case x >= top:
			counts[i] = uint16(window)
		case x > 0:
			t := int(x)
			if x-float64(t) >= 0.5 {
				t++
			}
			counts[i] = uint16(t)
		default: // x ≤ 0 or NaN
			counts[i] = 0
		}
	}
}
