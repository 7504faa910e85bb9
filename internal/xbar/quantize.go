package xbar

// Quantize writes each feature's spike count into counts, which must be
// at least as long: round(f·Γ) clamped to [0, Γ], halves away from zero as
// math.Round rounds them. It is the spike encoding every PE input gets
// (the count of a uniform train in the window Γ, paper §4.2).
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
// With AVX2 (laneAVX2) and 0 ≤ Γ < 2^31, quantizeAVX2 answers the features
// four at a time and the portable loop the last len mod 4. It computes the
// same numbers: x = f·Γ is the same product; max(x, +0) with x as the
// first operand maps NaN and −0 to +0 (MAXPD returns its second operand
// when either is NaN or both are zero) and min with Γ then gives [0, Γ],
// which is exactly the portable body's two clamps; truncation to int32 is
// exact below 2^31; and x − t is the same exact difference. A negative Γ
// or one at or past 2^31 takes the portable body.
func Quantize(counts []int, features []float64, window int) {
	counts = counts[:len(features)]
	if laneAVX2 && uint(window) < 1<<31 && len(features) >= 4 {
		n := len(features) &^ 3
		quantizeAVX2(&counts[0], &features[0], n/4, float64(window))
		counts, features = counts[n:], features[n:]
	}
	top := float64(window)
	for i, f := range features {
		switch x := f * top; {
		case x >= top:
			counts[i] = window
		case x > 0:
			t := int(x)
			if x-float64(t) >= 0.5 {
				t++
			}
			counts[i] = t
		default: // x ≤ 0 or NaN
			counts[i] = 0
		}
	}
}
