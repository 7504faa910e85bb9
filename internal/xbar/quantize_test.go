package xbar

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/hostcpu"
)

// quantizeBodies runs Quantize on features under each body and returns
// the portable body's counts and the AVX2 body's. Each starts from a slice
// of −7s one longer than the features, so an element either body leaves
// unwritten, or one it writes past the end, shows as a difference.
func quantizeBodies(features []float64, window int) (portable, avx2 []int) {
	run := func(on bool) []int {
		defer useLaneBody(on)()
		counts := make([]int, len(features)+1)
		for i := range counts {
			counts[i] = -7
		}
		Quantize(counts[:len(features)], features, window)
		return counts
	}
	return run(false), run(true)
}

// checkQuantizeBodies fails t at the first count the bodies disagree on.
func checkQuantizeBodies(t *testing.T, features []float64, window int) {
	t.Helper()
	portable, avx2 := quantizeBodies(features, window)
	for i := range portable {
		if portable[i] != avx2[i] {
			f := math.NaN()
			if i < len(features) {
				f = features[i]
			}
			t.Fatalf("Γ %d, %d features: count %d (feature %g, bits %#x): portable %d, AVX2 %d",
				window, len(features), i, f, math.Float64bits(f), portable[i], avx2[i])
		}
	}
}

// quantizeEdges are the features where a clamp or the rounding could tip:
// NaN (quiet and signalling), ±Inf, ±0, the smallest subnormal either
// sign, 1 and 1 + 1e-15, one ulp either side of 1, and far past either end.
var quantizeEdges = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, 1 + 1e-15, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, -1, math.MaxFloat64, -math.MaxFloat64,
}

// halfSteps returns (k+½)/Γ for every k < Γ with both of its neighbours:
// the features whose count a rounding off by one ulp would flip.
func halfSteps(window int) []float64 {
	var fs []float64
	for k := 0; k < window; k++ {
		f := (float64(k) + 0.5) / float64(window)
		fs = append(fs, math.Nextafter(f, 0), f, math.Nextafter(f, 2))
	}
	return fs
}

// TestQuantizeBodiesAgree holds the AVX2 quantize to the portable one on
// every edge feature and half step at several Γ, in every alignment of
// the four-feature blocks against the scalar tail, and on 20,000 random
// arrays of random bit patterns, edge features and half steps.
func TestQuantizeBodiesAgree(t *testing.T) {
	if !hostcpu.AVX2 {
		t.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	windows := []int{0, 1, 2, 15, 16, 64, 100, 128, 255, 1 << 20, 1<<31 - 1, 1 << 31, 1 << 40, -1, -64}
	for _, window := range windows {
		fs := append(append([]float64(nil), quantizeEdges...), halfSteps(min(max(window, 1), 256))...)
		for skip := 0; skip < 4; skip++ {
			checkQuantizeBodies(t, fs[skip:], window)
		}
	}
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 20000; trial++ {
		window := windows[rng.Intn(len(windows))]
		if trial%2 == 0 {
			window = 1 + rng.Intn(512)
		}
		steps := halfSteps(min(max(window, 1), 256))
		fs := make([]float64, rng.Intn(18))
		for i := range fs {
			switch rng.Intn(4) {
			case 0:
				fs[i] = math.Float64frombits(rng.Uint64())
			case 1:
				fs[i] = quantizeEdges[rng.Intn(len(quantizeEdges))]
			case 2:
				fs[i] = steps[rng.Intn(len(steps))]
			default:
				fs[i] = rng.Float64()*1.2 - 0.1
			}
		}
		checkQuantizeBodies(t, fs, window)
	}
}

// FuzzQuantizeBodiesAgree requires the AVX2 and portable quantize bodies
// to agree bit for bit: the features are the raw float64 bit patterns of
// the fuzzer's bytes, eight little-endian bytes each, 0 to 17 of them
// (either side of the four-feature blocks), and Γ is the fuzzer's, at and
// past 2^31 and negative too (where Quantize keeps the portable body).
// Seeds: the edge features and every half step with its neighbours.
func FuzzQuantizeBodiesAgree(f *testing.F) {
	if !hostcpu.AVX2 {
		f.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	bits := func(fs []float64) []byte {
		raw := make([]byte, 8*len(fs))
		for i, x := range fs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
		}
		return raw
	}
	for _, window := range []int64{1, 16, 64, 255, 1<<31 - 1, 1 << 31, 1 << 62, 0, -5} {
		f.Add(bits(quantizeEdges[:8]), window)
		f.Add(bits(quantizeEdges[8:]), window)
	}
	for _, window := range []int64{3, 16, 64, 100} {
		steps := halfSteps(int(window))
		for lo := 0; lo < len(steps); lo += 17 {
			f.Add(bits(steps[lo:min(lo+17, len(steps))]), window)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, window int64) {
		fs := make([]float64, min(len(raw)/8, 17))
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkQuantizeBodies(t, fs, int(window))
	})
}
