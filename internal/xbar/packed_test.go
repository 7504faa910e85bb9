package xbar

import (
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// countsAtDensity draws a spike-count vector whose expected density (mean
// count / window) is roughly d, mixing silent rows with active ones the
// way trained-layer activations do.
func countsAtDensity(rng *rand.Rand, n, window int, d float64) []int {
	x := make([]int, n)
	if d >= 1 {
		for i := range x {
			x[i] = window
		}
		return x
	}
	for i := range x {
		if rng.Float64() < 0.5 {
			continue // silent row
		}
		c := int(2 * d * float64(window) * rng.Float64() * 2)
		x[i] = spike.Clamp(c, window)
	}
	return x
}

// newTestCrossbar programs a crossbar with random weights; noisy selects
// Gaussian programming variation (inexact conductance sums, forcing the
// packed kernel's order-preserving row iteration).
func newTestCrossbar(t *testing.T, rng *rand.Rand, rows, cols int, noisy bool, zeroCols int) (*Crossbar, [][]int) {
	t.Helper()
	cfg := testConfig(0)
	var prng *rand.Rand
	if noisy {
		cfg.Spec = device.Cell4BitMeasured
		prng = rand.New(rand.NewSource(rng.Int63()))
	}
	weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
	for z := 0; z < zeroCols && z < cols; z++ {
		j := (z * 7) % cols
		for i := range weights {
			weights[i][j] = 0
		}
	}
	xb, err := Program(cfg, weights, prng)
	if err != nil {
		t.Fatal(err)
	}
	return xb, weights
}

// TestPackedMatchesDenseProperty is the core bit-exactness property test:
// randomized (rows, cols, batch, density, programming noise, zero
// columns, threshold η) configurations where the packed kernel must equal
// the dense kernel element for element. Shapes straddle the 64-bit lane
// boundary; zeroCols exercises the column skip list; noisy programming
// disables count grouping and pins the float accumulation order; each
// crossbar runs at a saturating η and at the synthesizer's.
func TestPackedMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		rows, cols, batch, zeroCols int
	}{
		{1, 1, 1, 0}, {63, 8, 3, 2}, {64, 10, 4, 0}, {65, 9, 2, 3},
		{100, 16, 5, 4}, {256, 30, 2, 0}, {48, 12, 16, 6},
	}
	densities := []float64{0, 0.02, 0.05, 0.1, 0.3, 0.7, 1}
	for _, noisy := range []bool{false, true} {
		for _, tc := range cases {
			xb, weights := newTestCrossbar(t, rng, tc.rows, tc.cols, noisy, tc.zeroCols)
			if xb.exactSums == noisy {
				t.Fatalf("noisy=%v: exactSums=%v, want %v", noisy, xb.exactSums, !noisy)
			}
			// A mid-range η so both sub- and super-threshold drives occur
			// (columns saturate: the float walk and its hot drain), then the
			// synthesizer's never-saturating η (the integer-lane walk, when
			// programming is ideal).
			mid := float64(testConfig(0).Rep.MaxWeight()) * float64(tc.rows) / 8
			for _, eta := range []float64{mid, synthEta(weights)} {
				xb.SetEta(eta)
				if lanes := len(xb.walkCols) > 0 && xb.laneEligible(); lanes != (!noisy && eta != mid && tc.rows > maxSupport) {
					t.Fatalf("noisy=%v %+v η=%g: lane walk = %v", noisy, tc, eta, lanes)
				}
				for _, d := range densities {
					src := make([]int, 0, tc.batch*tc.rows)
					for b := 0; b < tc.batch; b++ {
						src = append(src, countsAtDensity(rng, tc.rows, xb.Window(), d)...)
					}
					dense := make([]int, tc.batch*tc.cols)
					packed := make([]int, tc.batch*tc.cols)
					if err := xb.SimulateCountsBatchDense(dense, src, tc.batch); err != nil {
						t.Fatal(err)
					}
					if err := xb.SimulateCountsBatchPacked(packed, src, tc.batch); err != nil {
						t.Fatal(err)
					}
					for k := range dense {
						if dense[k] != packed[k] {
							t.Fatalf("noisy=%v %+v η=%g d=%g: out[%d] dense %d packed %d",
								noisy, tc, eta, d, k, dense[k], packed[k])
						}
					}
				}
			}
		}
	}
}

// TestPackedDegenerateCases covers the boundary inputs the ISSUE calls
// out: all-zero windows, all-ones windows, a single-cycle window (Γ=1 via
// IOBits=0), tiny η (every cycle fires), and η ≤ 0 after SetEta.
func TestPackedDegenerateCases(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	check := func(t *testing.T, xb *Crossbar, src []int, batch int) {
		t.Helper()
		dense := make([]int, batch*xb.Cols())
		packed := make([]int, batch*xb.Cols())
		if err := xb.SimulateCountsBatchDense(dense, src, batch); err != nil {
			t.Fatal(err)
		}
		if err := xb.SimulateCountsBatchPacked(packed, src, batch); err != nil {
			t.Fatal(err)
		}
		for k := range dense {
			if dense[k] != packed[k] {
				t.Fatalf("out[%d]: dense %d packed %d", k, dense[k], packed[k])
			}
		}
	}
	t.Run("all-zero", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 40, 8, false, 0)
		check(t, xb, make([]int, 3*40), 3)
	})
	t.Run("all-ones", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 40, 8, true, 0)
		src := make([]int, 2*40)
		for i := range src {
			src[i] = xb.Window()
		}
		check(t, xb, src, 2)
	})
	t.Run("single-timestep-window", func(t *testing.T) {
		cfg := testConfig(0)
		cfg.Params.IOBits = 0 // Γ = 1
		weights := randomWeights(rng, 20, 6, cfg.Rep.MaxWeight())
		xb, err := Program(cfg, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		if xb.Window() != 1 {
			t.Fatalf("window = %d, want 1", xb.Window())
		}
		src := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1}
		check(t, xb, src, 1)
	})
	t.Run("tiny-eta", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 30, 7, false, 0)
		xb.SetEta(0.5) // far below single-row drive: long hot tails
		src := countsAtDensity(rng, 30, xb.Window(), 0.05)
		check(t, xb, src, 1)
	})
	t.Run("nonpositive-eta", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 16, 5, false, 2)
		xb.SetEta(0) // every column fires every cycle, zero columns included
		src := countsAtDensity(rng, 16, xb.Window(), 0.1)
		check(t, xb, src, 1)
	})
}

// TestAutoSelection pins the density probe on a noisy crossbar (no count
// grouping, so DefaultSparseThreshold decides): at the last per-row count
// whose density is still at or below it the packed kernel runs, one spike
// per row more and the dense kernel does, and KernelStats records both
// the choices and the observed density.
func TestAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	weights := randomWeights(rng, 32, 8, cfg.Rep.MaxWeight())
	xb, err := Program(cfg, weights, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	window := xb.Window()
	below := int(DefaultSparseThreshold * float64(window)) // density below/window ≤ 0.30
	if below < 1 || below >= window {
		t.Fatalf("window %d leaves no count either side of the threshold", window)
	}
	sparseSrc := make([]int, 32)
	for i := range sparseSrc {
		sparseSrc[i] = below
	}
	denseSrc := make([]int, 32) // density (below+1)/window > 0.30
	for i := range denseSrc {
		denseSrc[i] = below + 1
	}
	dst := make([]int, 8)
	if err := xb.SimulateCountsBatch(dst, sparseSrc, 1); err != nil {
		t.Fatal(err)
	}
	if err := xb.SimulateCountsBatch(dst, denseSrc, 1); err != nil {
		t.Fatal(err)
	}
	st := xb.KernelStats()
	if st.SparseBatches != 1 || st.DenseBatches != 1 {
		t.Fatalf("selections = %d sparse / %d dense, want 1/1", st.SparseBatches, st.DenseBatches)
	}
	wantDensity := float64(2*below+1) / float64(2*window)
	if math.Abs(st.Density()-wantDensity) > 1e-12 {
		t.Fatalf("Density() = %g, want %g", st.Density(), wantDensity)
	}

	// An ideally programmed crossbar always takes the packed kernel under
	// PathAuto — count grouping makes it the faster walk at every density.
	ixb, err := Program(testConfig(0), weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ixb.SimulateCountsBatch(dst, denseSrc, 1); err != nil {
		t.Fatal(err)
	}
	if st := ixb.KernelStats(); st.SparseBatches != 1 || st.DenseBatches != 0 {
		t.Fatalf("ideal selections = %d sparse / %d dense, want 1/0", st.SparseBatches, st.DenseBatches)
	}
}

// TestPathString pins the path spellings.
func TestPathString(t *testing.T) {
	for p, want := range map[Path]string{PathAuto: "auto", PathDense: "dense", PathSparse: "sparse", Path(99): "auto"} {
		if got := p.String(); got != want {
			t.Errorf("Path(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestVMMBatchPackedMatchesDense checks the packed binary kernel against
// VMMBatch with the equivalent 0/1 float input — bit for bit, including
// a last lane with stray bits past rows, which must be ignored.
func TestVMMBatchPackedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, tc := range []struct{ batch, rows, cols int }{
		{1, 1, 1}, {2, 63, 5}, {3, 64, 7}, {4, 65, 6}, {2, 100, 12}, {1, 256, 20},
	} {
		lanes := spike.Lanes(tc.rows)
		masks := make([]uint64, tc.batch*lanes)
		in := make([]float64, tc.batch*tc.rows)
		for b := 0; b < tc.batch; b++ {
			for i := 0; i < tc.rows; i++ {
				if rng.Intn(3) == 0 {
					masks[b*lanes+i>>6] |= 1 << uint(i&63)
					in[b*tc.rows+i] = 1
				}
			}
			// Stray bits past rows in the final lane must not contribute.
			if r := tc.rows & 63; r != 0 {
				masks[b*lanes+lanes-1] |= ^(uint64(1)<<uint(r) - 1)
			}
		}
		w := make([]float64, tc.rows*tc.cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		want := make([]float64, tc.batch*tc.cols)
		got := make([]float64, tc.batch*tc.cols)
		VMMBatch(want, w, in, tc.batch, tc.rows, tc.cols)
		VMMBatchPacked(got, w, masks, tc.batch, tc.rows, tc.cols)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%+v: out[%d] = %x, want %x", tc, k, got[k], want[k])
			}
		}
	}
}

// TestKernelStatsAdd covers the aggregation helper executors use.
func TestKernelStatsAdd(t *testing.T) {
	a := KernelStats{SparseBatches: 1, DenseBatches: 2, Spikes: 30, SpikeSlots: 100}
	b := KernelStats{SparseBatches: 3, DenseBatches: 4, Spikes: 10, SpikeSlots: 100}
	got := a.Add(b)
	want := KernelStats{SparseBatches: 4, DenseBatches: 6, Spikes: 40, SpikeSlots: 200}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got.Density() != 0.2 {
		t.Fatalf("Density = %g, want 0.2", got.Density())
	}
	if (KernelStats{}).Density() != 0 {
		t.Fatal("empty Density != 0")
	}
}

// TestProgramAllocs pins Program's allocation count on noisy crossbars — the
// 16×24 and 24×4 shapes and the programming offline_mlp_noisy_sparse pays
// for on every call — at a constant, whatever rows·cols is: programming a
// weight allocates nothing (device.ProgramWeight), and what
// classifyProgramming records for the kernel choice (column supports,
// per-polarity column sums) rides in the scan's existing buffers, so the
// crossbar, its four matrices and the three classification slices are all
// there is.
func TestProgramAllocs(t *testing.T) {
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	for _, shape := range [][2]int{{16, 24}, {24, 4}} {
		rows, cols := shape[0], shape[1]
		weights := randomWeights(rand.New(rand.NewSource(77)), rows, cols, cfg.Rep.MaxWeight())
		prng := rand.New(rand.NewSource(78))
		got := testing.AllocsPerRun(20, func() {
			if _, err := Program(cfg, weights, prng); err != nil {
				t.Fatal(err)
			}
		})
		if want := 8.0; got != want {
			t.Errorf("Program(%dx%d) allocates %v times per call, want %v", rows, cols, got, want)
		}
	}
}
