package place

import (
	"math"
	"math/rand"
	"testing"
)

// checkMetropolis fails unless the shortcut gives the answer of the
// expression it replaces.
func checkMetropolis(t *testing.T, u, x float64) {
	t.Helper()
	if got, want := metropolis(u, x), u < math.Exp(-x); got != want {
		t.Fatalf("metropolis(%v, %v) = %v, u < math.Exp(-t) = %v (exp %v)", u, x, got, want, math.Exp(-x))
	}
}

// TestMetropolisMatchesExp: every accept/reject decision of the annealer is
// u < exp(−t); the shortcut must give that answer on every input, not only
// where its bounds are comfortable. Random draws, t swept from 1e-12 to 800
// (past 745 the exponential is zero), and for each t the one u where the
// answer flips — math.Exp(−t) itself — with its float neighbours on both
// sides.
func TestMetropolisMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		// Log-uniform t over [1e-12, 800]: the annealer sees both ends, a
		// near-zero delta at a high temperature and the reverse.
		x := math.Exp(math.Log(1e-12) + rng.Float64()*(math.Log(800)-math.Log(1e-12)))
		checkMetropolis(t, rng.Float64(), x)
		e := math.Exp(-x)
		for _, u := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 1), math.Nextafter(math.Nextafter(e, 0), 0), math.Nextafter(math.Nextafter(e, 1), 1)} {
			checkMetropolis(t, u, x)
		}
	}
	for _, x := range []float64{0, 1e-12, 1e-9, 1, 100, 744, 745.2, 800, 1e100, 1e200, math.Inf(1), math.NaN()} {
		for _, u := range []float64{0, math.SmallestNonzeroFloat64, 1e-9, 0.5, math.Nextafter(1, 0)} {
			checkMetropolis(t, u, x)
		}
	}
}

// FuzzMetropolis: the same identity on whatever (u, t ≥ 0) the fuzzer finds.
func FuzzMetropolis(f *testing.F) {
	f.Add(0.5, 0.5)
	f.Add(0.36787944117144233, 1.0)
	f.Add(0.0, 800.0)
	f.Add(0.9999999, 1e-12)
	f.Add(1e-9, 20.0)
	f.Fuzz(func(t *testing.T, u, x float64) {
		checkMetropolis(t, u, math.Abs(x))
	})
}
