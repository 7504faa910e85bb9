package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpliceEncodeDecodeRoundTrip(t *testing.T) {
	rep := NewSplice(CellSpec{Bits: 4}, 2)
	if got := rep.MaxWeight(); got != 255 {
		t.Fatalf("MaxWeight = %d, want 255", got)
	}
	for w := 0; w <= rep.MaxWeight(); w++ {
		levels := rep.Encode(w)
		gs := make([]float64, len(levels))
		for i, l := range levels {
			gs[i] = float64(l)
		}
		if got := rep.Decode(gs); got != float64(w) {
			t.Fatalf("splice round trip: Encode(%d)=%v Decode=%v", w, levels, got)
		}
	}
}

func TestSpliceEncodeFields(t *testing.T) {
	rep := NewSplice(CellSpec{Bits: 4}, 2)
	levels := rep.Encode(0xAB)
	if levels[0] != 0xB || levels[1] != 0xA {
		t.Fatalf("Encode(0xAB) = %v, want [11 10]", levels)
	}
}

func TestAddEncodeDecodeRoundTrip(t *testing.T) {
	rep := NewAdd(CellSpec{Bits: 4}, 8)
	if got := rep.MaxWeight(); got != 120 {
		t.Fatalf("MaxWeight = %d, want 120", got)
	}
	for w := 0; w <= rep.MaxWeight(); w++ {
		levels := rep.Encode(w)
		sum := 0
		for _, l := range levels {
			if l < 0 || l > 15 {
				t.Fatalf("Encode(%d) produced out-of-range level %d", w, l)
			}
			sum += l
		}
		if sum != w {
			t.Fatalf("add Encode(%d) levels sum to %d", w, sum)
		}
	}
}

func TestAddEncodeEven(t *testing.T) {
	rep := NewAdd(CellSpec{Bits: 4}, 8)
	levels := rep.Encode(60)
	for _, l := range levels {
		// 60/8 = 7.5: levels must be 7 or 8 (even spread maximizes the
		// Cauchy-inequality deviation gain).
		if l != 7 && l != 8 {
			t.Fatalf("Encode(60) = %v, want levels in {7,8}", levels)
		}
	}
}

func TestEncodeClamping(t *testing.T) {
	for _, rep := range []Representation{
		NewSplice(CellSpec{Bits: 4}, 2),
		NewAdd(CellSpec{Bits: 4}, 8),
	} {
		low := rep.Encode(-10)
		for _, l := range low {
			if l != 0 {
				t.Errorf("%s.Encode(-10) = %v, want all zero", rep.Name(), low)
			}
		}
		high := rep.Encode(1 << 20)
		gs := make([]float64, len(high))
		for i, l := range high {
			gs[i] = float64(l)
		}
		if got := rep.Decode(gs); got != float64(rep.MaxWeight()) {
			t.Errorf("%s.Encode(huge) decodes to %v, want MaxWeight %d", rep.Name(), got, rep.MaxWeight())
		}
	}
}

func TestSpliceNormalizedDeviationClosedForm(t *testing.T) {
	// Paper §7.2: two n-bit cells ⇒ sqrt(2^2n + 1)·σ/(2^2n − 1).
	spec := CellSpec{Bits: 4, Sigma: 0.5}
	rep := NewSplice(spec, 2)
	want := math.Sqrt(math.Pow(2, 8)+1) * spec.Sigma / (math.Pow(2, 8) - 1)
	if got := rep.NormalizedDeviation(spec); math.Abs(got-want) > 1e-12 {
		t.Errorf("splice deviation = %v, closed form %v", got, want)
	}
	// And it is "almost equal to the ratio of the one-cell case".
	oneCell := spec.NormalizedDeviation()
	if math.Abs(got(rep, spec)-oneCell)/oneCell > 0.07 {
		t.Errorf("splice deviation %v not within 7%% of one-cell %v", got(rep, spec), oneCell)
	}
}

func got(rep Representation, spec CellSpec) float64 { return rep.NormalizedDeviation(spec) }

func TestAddNormalizedDeviationSqrtN(t *testing.T) {
	spec := CellSpec{Bits: 4, Sigma: 0.5}
	one := NewAdd(spec, 1).NormalizedDeviation(spec)
	for _, n := range []int{2, 4, 8, 16} {
		gotDev := NewAdd(spec, n).NormalizedDeviation(spec)
		want := one / math.Sqrt(float64(n))
		if math.Abs(gotDev-want)/want > 1e-9 {
			t.Errorf("add(%d cells) deviation = %v, want %v (σ/√n scaling)", n, gotDev, want)
		}
	}
}

func TestAddBeatsSpliceOnDeviation(t *testing.T) {
	spec := CellSpec{Bits: 4, Sigma: 0.5}
	splice := NewSplice(spec, 2).NormalizedDeviation(spec)
	add := NewAdd(spec, 8).NormalizedDeviation(spec)
	if add >= splice {
		t.Errorf("add deviation %v not better than splice %v", add, splice)
	}
	// The paper's configurations: 8 add cells reduce deviation by ~√8
	// relative to one cell, splice ~none.
	if ratio := splice / add; ratio < 2.5 {
		t.Errorf("add improvement over splice = %.2f×, want ≥2.5×", ratio)
	}
}

func TestEffectiveLevelsFigure9Staircase(t *testing.T) {
	// Figure 9's "Bound by #Levels" staircase: k 4-bit add cells give
	// 15k+1 levels; 16 cells ≈ 8 bits, 2 splice cells = exactly 8 bits.
	spec := CellSpec{Bits: 4}
	cases := []struct {
		cells int
		want  int
	}{{1, 16}, {2, 31}, {4, 61}, {8, 121}, {16, 241}}
	for _, tc := range cases {
		if levels := NewAdd(spec, tc.cells).EffectiveLevels(); levels != tc.want {
			t.Errorf("add %d cells: EffectiveLevels = %d, want %d", tc.cells, levels, tc.want)
		}
	}
	if levels := NewSplice(spec, 2).EffectiveLevels(); levels != 256 {
		t.Errorf("splice 2 cells: EffectiveLevels = %d, want 256", levels)
	}
}

func TestProgramWeightMonteCarloDeviation(t *testing.T) {
	// The empirical deviation of ProgramWeight must match the closed
	// forms for both methods.
	spec := CellSpec{Bits: 4, Sigma: 0.4}
	rng := rand.New(rand.NewSource(7))
	for _, rep := range []Representation{
		NewSplice(spec, 2),
		NewAdd(spec, 8),
	} {
		const n = 100000
		w := rep.MaxWeight() / 2
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := ProgramWeight(rep, spec, w, rng)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		std := math.Sqrt(sumSq/n - mean*mean)
		gotDev := std / float64(rep.MaxWeight())
		wantDev := rep.NormalizedDeviation(spec)
		if math.Abs(gotDev-wantDev)/wantDev > 0.05 {
			t.Errorf("%s: Monte-Carlo deviation %v, closed form %v", rep.Name(), gotDev, wantDev)
		}
		if math.Abs(mean-float64(w)) > 3*std/math.Sqrt(n)+0.05 {
			t.Errorf("%s: ProgramWeight biased: mean %v want %d", rep.Name(), mean, w)
		}
	}
}

func TestQuickRoundTripBothMethods(t *testing.T) {
	spec := CellSpec{Bits: 4}
	reps := []Representation{NewSplice(spec, 2), NewAdd(spec, 8), NewAdd(spec, 3), NewSplice(spec, 3)}
	f := func(w int) bool {
		for _, rep := range reps {
			ww := w % (rep.MaxWeight() + 1)
			if ww < 0 {
				ww = -ww
			}
			levels := rep.Encode(ww)
			gs := make([]float64, len(levels))
			for i, l := range levels {
				gs[i] = float64(l)
			}
			if math.Abs(rep.Decode(gs)-float64(ww)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// programWeightOracle is the Encode → per-cell CellSpec.Program → Decode
// composition ProgramWeight is defined by, written out.
func programWeightOracle(rep Representation, spec CellSpec, w int, rng *rand.Rand) float64 {
	levels := rep.Encode(w)
	gs := make([]float64, len(levels))
	for i, l := range levels {
		gs[i] = spec.Program(l, rng)
	}
	return rep.Decode(gs)
}

// TestProgramWeightMatchesComposition: for both methods at 1…8 cells, over
// the whole weight range (sampled where splicing makes it astronomically
// wide) plus out-of-range weights, ideal and noisy, ProgramWeight returns
// the composition's value bit for bit and leaves rng exactly where the
// composition leaves it. The pointer forms take the generic fallback.
func TestProgramWeightMatchesComposition(t *testing.T) {
	sample := rand.New(rand.NewSource(3))
	for cells := 1; cells <= 8; cells++ {
		for _, sigma := range []float64{0, 1.6} {
			spec := CellSpec{Bits: 4, Sigma: sigma}
			add, splice := NewAdd(spec, cells), NewSplice(spec, cells)
			for _, rep := range []Representation{add, splice, &add, &splice} {
				maxW := rep.MaxWeight()
				ws := []int{-7, -1, maxW + 1, maxW + 1000}
				if maxW < 1<<12 {
					for w := 0; w <= maxW; w++ {
						ws = append(ws, w)
					}
				} else {
					ws = append(ws, 0, 1, maxW-1, maxW)
					for i := 0; i < 1<<12; i++ {
						ws = append(ws, sample.Intn(maxW+1))
					}
				}
				for _, noisy := range []bool{false, true} {
					var want, got *rand.Rand
					if noisy {
						want, got = rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41))
					}
					for _, w := range ws {
						a := programWeightOracle(rep, spec, w, want)
						b := ProgramWeight(rep, spec, w, got)
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s×%d σ=%v noisy=%v w=%d: ProgramWeight %v, composition %v", rep.Name(), cells, sigma, noisy, w, b, a)
						}
						if noisy && want.Int63() != got.Int63() {
							t.Fatalf("%s×%d σ=%v w=%d: rng streams diverged", rep.Name(), cells, sigma, w)
						}
					}
				}
			}
		}
	}
}

// TestProgramWeightAllocs: programming a weight allocates nothing for
// either built-in method — xbar.Program calls it twice per cell on every
// programming pass.
func TestProgramWeightAllocs(t *testing.T) {
	spec := Cell4BitMeasured
	rng := rand.New(rand.NewSource(9))
	for _, rep := range []Representation{NewAdd(spec, 8), NewSplice(spec, 2)} {
		w := rep.MaxWeight() / 3
		if n := testing.AllocsPerRun(100, func() { ProgramWeight(rep, spec, w, rng) }); n != 0 {
			t.Errorf("%s: ProgramWeight allocates %v times per call, want 0", rep.Name(), n)
		}
	}
}
