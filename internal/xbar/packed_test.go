package xbar

import (
	"fmt"
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
// Gaussian programming variation (inexact conductance sums: the float walk,
// whose row order is the dense accumulation order).
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

// repeatedCounts is a three-item batch of the count vectors a walk that
// merged rows by firing count would treat differently: every row at one
// count, two counts alternating down the rows, and counts that differ from
// row to row (all distinct up to Γ+1 rows).
func repeatedCounts(rows, window int) []int {
	src := make([]int, 0, 3*rows)
	for i := 0; i < rows; i++ {
		src = append(src, window/3+1)
	}
	for i := 0; i < rows; i++ {
		src = append(src, []int{window / 4, window - 1}[i%2])
	}
	for i := 0; i < rows; i++ {
		src = append(src, (i*37+5)%(window+1)) // 37 is coprime to Γ+1 = 17, 65, 129
	}
	return src
}

// TestPackedMatchesDenseProperty is the core bit-exactness property test:
// randomized (rows, cols, batch, density, programming noise, zero
// columns, threshold η) configurations where the kernel must equal the
// dense oracle element for element. Shapes straddle the 64-bit lane
// boundary; zeroCols exercises the column skip list; noisy programming
// pins the float accumulation order; each crossbar runs at a saturating η
// and at the synthesizer's. Every ideal crossbar is also programmed with
// column 0 stuck high, which lifts that column's drive over the
// synthesizer's η: exact sums, but no longer lane-eligible — the float walk
// on integer conductances, which used to merge equal-count rows into one
// unit. Besides the density sweep every crossbar is fed repeatedCounts. It
// runs under each body the CPU has, of both walks.
func TestPackedMatchesDenseProperty(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testPackedMatchesDenseProperty(t)
		})
	}
}

func testPackedMatchesDenseProperty(t *testing.T) {
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
			if exact := !math.IsInf(xb.maxDrive, 1); exact == noisy {
				t.Fatalf("noisy=%v: exact sums = %v, want %v", noisy, exact, !noisy)
			}
			// A mid-range η so both sub- and super-threshold drives occur
			// (columns saturate: the float walk and its hot drain), then the
			// synthesizer's never-saturating η (the integer-lane walk, when
			// programming is ideal).
			mid := float64(testConfig(0).Rep.MaxWeight()) * float64(tc.rows) / 8
			se := synthEta(weights)
			type run struct {
				name string
				xb   *Crossbar
				etas []float64
			}
			runs := []run{{"plain", xb, []float64{mid, se}}}
			if walked := tc.rows > maxSupport; walked && !noisy {
				fm := device.FaultMap{Rows: tc.rows, Cols: tc.cols}
				for i := 0; i < tc.rows; i++ {
					fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: 0, Kind: device.FaultStuckHigh})
				}
				if err := fm.Validate(); err != nil {
					t.Fatal(err)
				}
				mask := fm.MaskFor(tc.rows, tc.cols, false)
				cfg := testConfig(se)
				cfg.Faults = &mask
				stuck, err := Program(cfg, weights, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsInf(stuck.maxDrive, 1) || stuck.laneEligible() {
					t.Fatalf("%+v stuck-high column at η=%g: maxDrive %g, lane-eligible %v, want exact sums over η", tc, se, stuck.maxDrive, stuck.laneEligible())
				}
				runs = append(runs, run{"stuck-high", stuck, []float64{se}})
			}
			for _, run := range runs {
				for _, eta := range run.etas {
					xb := run.xb
					xb.SetEta(eta)
					label := fmt.Sprintf("noisy=%v %+v %s η=%g", noisy, tc, run.name, eta)
					if lanes := len(xb.walkCols) > 0 && xb.laneEligible(); lanes != (!noisy && run.name == "plain" && eta != mid && tc.rows > maxSupport) {
						t.Fatalf("%s: lane walk = %v", label, lanes)
					}
					for _, d := range densities {
						src := make([]int, 0, tc.batch*tc.rows)
						for b := 0; b < tc.batch; b++ {
							src = append(src, countsAtDensity(rng, tc.rows, xb.Window(), d)...)
						}
						assertPackedMatchesDense(t, fmt.Sprintf("%s d=%g", label, d), xb, src, tc.batch)
					}
					assertPackedMatchesDense(t, label+" repeated counts", xb, repeatedCounts(tc.rows, xb.Window()), 3)
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
	t.Run("all-zero", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 40, 8, false, 0)
		assertPackedMatchesDense(t, t.Name(), xb, make([]int, 3*40), 3)
	})
	t.Run("all-ones", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 40, 8, true, 0)
		src := make([]int, 2*40)
		for i := range src {
			src[i] = xb.Window()
		}
		assertPackedMatchesDense(t, t.Name(), xb, src, 2)
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
		assertPackedMatchesDense(t, t.Name(), xb, src, 1)
	})
	t.Run("tiny-eta", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 30, 7, false, 0)
		xb.SetEta(0.5) // far below single-row drive: long hot tails
		src := countsAtDensity(rng, 30, xb.Window(), 0.05)
		assertPackedMatchesDense(t, t.Name(), xb, src, 1)
	})
	t.Run("nonpositive-eta", func(t *testing.T) {
		xb, _ := newTestCrossbar(t, rng, 16, 5, false, 2)
		xb.SetEta(0) // every column fires every cycle, zero columns included
		src := countsAtDensity(rng, 16, xb.Window(), 0.1)
		assertPackedMatchesDense(t, t.Name(), xb, src, 1)
	})
}

// TestAutoSelection pins that there is no selection left to make: on a
// noisy crossbar — the one kind a density threshold (0.30) used to split
// between two kernels — a batch at the last per-row count at or below that
// density and a batch one spike per row above it both run the kernel and
// equal the dense oracle (run on an identically programmed twin, so the
// counters read the kernel's calls alone): two kernel calls, no oracle call,
// and the observed density.
func TestAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	weights := randomWeights(rng, 32, 8, cfg.Rep.MaxWeight())
	var xb, oracle *Crossbar
	for _, c := range []**Crossbar{&xb, &oracle} {
		var err error
		if *c, err = Program(cfg, weights, rand.New(rand.NewSource(5))); err != nil {
			t.Fatal(err)
		}
	}
	window := xb.Window()
	below := int(0.30 * float64(window)) // density below/window ≤ 0.30
	if below < 1 || below >= window {
		t.Fatalf("window %d leaves no count either side of 0.30", window)
	}
	for _, count := range []int{below, below + 1} {
		src := make([]int, 32)
		for i := range src {
			src[i] = count
		}
		got, want := make([]int, 8), make([]int, 8)
		if err := xb.SimulateCountsBatch(got, src, 1); err != nil {
			t.Fatal(err)
		}
		if err := oracle.SimulateCountsBatchDense(want, src, 1); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("count %d: kernel %v, oracle %v", count, got, want)
		}
	}
	st := xb.KernelStats()
	if st.SparseBatches != 2 || st.DenseBatches != 0 {
		t.Fatalf("calls = %d kernel / %d oracle, want 2/0", st.SparseBatches, st.DenseBatches)
	}
	wantDensity := float64(2*below+1) / float64(2*window)
	if math.Abs(st.Density()-wantDensity) > 1e-12 {
		t.Fatalf("Density() = %g, want %g", st.Density(), wantDensity)
	}
	if ost := oracle.KernelStats(); ost.SparseBatches != 0 || ost.DenseBatches != 2 || ost.SpikeSlots != 0 {
		t.Fatalf("oracle twin: %+v, want 2 oracle calls and nothing else", ost)
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
// classifyProgramming records for the kernel (column supports,
// per-polarity column sums) rides in the scan's existing buffers, so the
// crossbar, its packed ideal weights, its two conductance matrices and the
// three classification slices are all there is.
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
		if want := 7.0; got != want {
			t.Errorf("Program(%dx%d) allocates %v times per call, want %v", rows, cols, got, want)
		}
	}
}
