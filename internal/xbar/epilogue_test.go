package xbar

import (
	"math/rand"
	"testing"
)

// floatEpilogue is the float branch's answer for one packed drive word with
// no window clamp: max(0, int(P/η) − int(N/η)) in float64 division, the
// historical reference semantics the integer epilogue must equal.
func floatEpilogue(p, n uint64, eta float64) int {
	return max(0, int(float64(p)/eta)-int(float64(n)/eta))
}

// epilogueDividends are the dividends TestReferenceIntegerEpilogueExact
// checks at η: k·η−1, k·η and k·η+1 for every k up to 64, the top 64 k
// whose k·η+1 still fits 32 bits, every power of two and its neighbours,
// and 64 random k in between — each dividend a near miss of an exact
// multiple, where a float quotient rounded across an integer would show.
func epilogueDividends(rng *rand.Rand, eta uint64) []uint64 {
	const top = 1<<polarityShift - 1
	kmax := (top - 1) / eta
	var ks []uint64
	for k := uint64(0); k <= min(64, kmax); k++ {
		ks = append(ks, k)
	}
	for k := max(65, kmax-63); k <= kmax && kmax > 64; k++ {
		ks = append(ks, k)
	}
	for s := 6; uint64(1)<<s <= kmax; s++ {
		k := uint64(1) << s
		ks = append(ks, k-1, k, min(k+1, kmax))
	}
	for range 64 {
		ks = append(ks, uint64(rng.Int63n(int64(kmax)+1)))
	}
	ds := make([]uint64, 0, 3*len(ks))
	for _, k := range ks {
		if k > 0 {
			ds = append(ds, k*eta-1)
		}
		ds = append(ds, k*eta, k*eta+1)
	}
	return ds
}

// epilogueSpan is the window the epilogue tests pass: the largest count a
// uint16 holds, so that the clamp hides no difference of quotients the
// tests' words make.
const epilogueSpan = 1<<16 - 1

// nearWords returns, for a dividend d < 2^32 at η, the drive words (d, lo)
// and (hi, d): lo is d less min(⌊d/η⌋, epilogueSpan) multiples of η, and
// hi is d plus epilogueSpan of them, capped at 2^32−1, so both words'
// differences of quotients lie in [0, epilogueSpan] while d is read as the
// positive half of one and the negative half of the other.
func nearWords(d, eta uint64) (low, high [2]uint64) {
	const top = 1<<polarityShift - 1
	lo := d - min(d/eta, epilogueSpan)*eta
	hi := min(d+epilogueSpan*eta, top)
	return [2]uint64{d, lo}, [2]uint64{hi, d}
}

// TestReferenceIntegerEpilogueExact holds integerEpilogue, the branch every
// synthesized η takes, to the float division it replaces: at every η in
// 1…4096 and at 2^20, 2^21, 2^31 and 2^32−1, on the dividends
// epilogueDividends picks, as the positive half and as the negative half
// of a drive word whose other half is within epilogueSpan quotients
// (nearWords), under each body the CPU has (the AVX2 one answers the words
// in blocks of four and the last one or three in its scalar tail). The
// window is epilogueSpan, so the clamp hides nothing.
func TestReferenceIntegerEpilogueExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4001))
	etas := []uint64{1 << 20, 1 << 21, 1 << 31, 1<<32 - 1}
	for e := uint64(1); e <= 4096; e++ {
		etas = append(etas, e)
	}
	var words [][2]uint64
	var sums []uint64
	var dst []uint16
	for _, eta := range etas {
		words = words[:0]
		for _, d := range epilogueDividends(rng, eta) {
			low, high := nearWords(d, eta)
			words = append(words, low, high)
		}
		sums, dst = grow(sums, len(words)), grow(dst, len(words))
		for _, body := range laneBodies() {
			for i, w := range words {
				sums[i] = w[0]<<polarityShift | w[1]
			}
			restore := useLaneBody(body.avx2)
			integerEpilogue(dst, sums, eta, epilogueSpan)
			restore()
			for i, w := range words {
				if want := floatEpilogue(w[0], w[1], float64(eta)); int(dst[i]) != want {
					t.Fatalf("%s η %d: P %d N %d gives %d, float division %d", body.name, eta, w[0], w[1], dst[i], want)
				}
			}
		}
	}
}

// TestReferenceSetEtaRoundTrip switches one crossbar's η from integral
// (the integer epilogue) to fractional (the float one) and back with
// SetEta, under each body of the reference kernel: every step must answer
// as referenceNaive does at that η, so neither branch keeps state from the
// other.
func TestReferenceSetEtaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4002))
	cfg := testConfig(0)
	rows, cols, batch := 40, 12, 9
	weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
	xb, err := Program(cfg, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int, 0, batch*rows)
	for range batch {
		src = append(src, randomCounts(rng, rows, xb.Window())...)
	}
	se := synthEta(weights)
	for _, body := range laneBodies() {
		restore := useLaneBody(body.avx2)
		for _, eta := range []float64{se, se/7 + 0.5, 1, 2.25, 3, se} {
			xb.SetEta(eta)
			dst := make([]int, batch*cols)
			if err := xb.ReferenceBatch(dst, src, batch); err != nil {
				t.Fatal(err)
			}
			for b := range batch {
				want := referenceNaive(weights, src[b*rows:(b+1)*rows], eta, xb.Window())
				for j, w := range want {
					if got := dst[b*cols+j]; got != w {
						t.Fatalf("%s η %g: out[%d,%d] = %d, want %d", body.name, eta, b, j, got, w)
					}
				}
			}
		}
		restore()
	}
}

// FuzzReferenceEpilogue fuzzes integerEpilogue against float division on
// nine drive words built from any 32-bit P and N at any η in [1, 2^32)
// (0 maps to 1): (P, N), (N, P), (k, N) and (N, k) with k the largest
// multiple of η not above P, then nearWords of P and of N, whose
// differences of quotients stay below the window, then (P, N) again. The
// window is epilogueSpan, and the answer float division's clamped to it.
// Under each body the CPU has, so with AVX2 the first eight take two
// vector blocks and the ninth the scalar tail. Seed corpus under
// testdata/fuzz/FuzzReferenceEpilogue: η = 1, 2, 3, a power of two, 2^31
// and 2^32−1 with dividends at and beside a multiple; CI runs a short
// -fuzztime smoke pass.
func FuzzReferenceEpilogue(f *testing.F) {
	f.Add(uint32(7), uint32(6), uint32(1))
	f.Fuzz(func(t *testing.T, p, n, eta uint32) {
		e := max(uint64(eta), 1)
		k := uint64(p) / e * e
		pLow, pHigh := nearWords(uint64(p), e)
		nLow, nHigh := nearWords(uint64(n), e)
		words := [...][2]uint64{{uint64(p), uint64(n)}, {uint64(n), uint64(p)}, {k, uint64(n)}, {uint64(n), k},
			pLow, pHigh, nLow, nHigh, {uint64(p), uint64(n)}}
		for _, body := range laneBodies() {
			var sums [len(words)]uint64
			var dst [len(words)]uint16
			for i, w := range words {
				sums[i] = w[0]<<polarityShift | w[1]
			}
			restore := useLaneBody(body.avx2)
			integerEpilogue(dst[:], sums[:], e, epilogueSpan)
			restore()
			for i, w := range words {
				if want := min(floatEpilogue(w[0], w[1], float64(e)), epilogueSpan); int(dst[i]) != want {
					t.Fatalf("%s word %d: P %d N %d η %d: %d, float division %d", body.name, i, w[0], w[1], e, dst[i], want)
				}
			}
		}
	})
}
