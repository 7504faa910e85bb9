package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

func testConfig(eta float64) Config {
	spec := device.Cell4Bit
	spec.Sigma = 0
	return Config{
		Params: device.Params45nm,
		Spec:   spec,
		Rep:    device.NewAdd(spec, device.Params45nm.CellsPerWeight),
		Eta:    eta,
	}
}

func randomWeights(rng *rand.Rand, rows, cols, maxW int) [][]int {
	w := make([][]int, rows)
	for i := range w {
		w[i] = make([]int, cols)
		for j := range w[i] {
			w[i][j] = rng.Intn(2*maxW+1) - maxW
		}
	}
	return w
}

func randomCounts(rng *rand.Rand, n, window int) []int {
	x := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(window + 1)
	}
	return x
}

// TestVMMBatchMatchesNaive checks the blocked kernel against a plain
// triple loop across shapes that straddle the row-block boundary, then —
// bit for bit, on non-integer operands where a reordered sum would show —
// against the row-by-row o[j] += x·w loop it replaced, on column counts
// either side of the 8- and 4-wide register blocks, with zero inputs of
// both signs (skipped) and ±0 weights (added).
func TestVMMBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ batch, rows, cols int }{
		{1, 1, 1}, {1, 31, 7}, {3, 32, 5}, {4, 33, 9}, {2, 100, 64}, {7, 256, 17},
	} {
		in := make([]float64, tc.batch*tc.rows)
		for i := range in {
			in[i] = math.Round(rng.Float64()*20 - 10)
		}
		w := make([]float64, tc.rows*tc.cols)
		for i := range w {
			w[i] = math.Round(rng.Float64()*10 - 5)
		}
		got := make([]float64, tc.batch*tc.cols)
		VMMBatch(got, w, in, tc.batch, tc.rows, tc.cols)
		for b := 0; b < tc.batch; b++ {
			for j := 0; j < tc.cols; j++ {
				var want float64
				for i := 0; i < tc.rows; i++ {
					want += in[b*tc.rows+i] * w[i*tc.cols+j]
				}
				if got[b*tc.cols+j] != want {
					t.Fatalf("%+v: out[%d,%d] = %g, want %g", tc, b, j, got[b*tc.cols+j], want)
				}
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for _, cols := range []int{1, 3, 4, 5, 7, 8, 24} {
		for _, rows := range []int{1, rowBlock - 1, rowBlock, rowBlock + 1, 2*rowBlock + 1} {
			const batch = 3
			in := make([]float64, batch*rows)
			for i := range in {
				switch rng.Intn(6) {
				case 0:
					in[i] = 0
				case 1:
					in[i] = negZero
				default:
					in[i] = rng.NormFloat64()
				}
			}
			for i := 0; i < rows; i++ {
				in[rows+i] = 0 // the middle item: nothing fires
			}
			w := make([]float64, rows*cols)
			for i := range w {
				switch rng.Intn(8) {
				case 0:
					w[i] = 0
				case 1:
					w[i] = negZero
				default:
					w[i] = rng.NormFloat64()
				}
			}
			got := make([]float64, batch*cols)
			for k := range got {
				got[k] = math.NaN() // out is overwritten, not accumulated into
			}
			VMMBatch(got, w, in, batch, rows, cols)
			want := make([]float64, batch*cols)
			for b := 0; b < batch; b++ {
				for i := 0; i < rows; i++ {
					xv := in[b*rows+i]
					if xv == 0 {
						continue
					}
					for j := 0; j < cols; j++ {
						want[b*cols+j] += xv * w[i*cols+j]
					}
				}
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("rows %d cols %d: out[%d] = %x, row-by-row loop %x", rows, cols, k, got[k], want[k])
				}
			}
		}
	}
}

// referenceNaive replicates the historical per-item integer reference
// semantics with plain int arithmetic.
func referenceNaive(weights [][]int, x []int, eta float64, window int) []int {
	cols := len(weights[0])
	out := make([]int, cols)
	for j := 0; j < cols; j++ {
		var pos, neg int
		for i := range weights {
			w := weights[i][j]
			if w >= 0 {
				pos += w * x[i]
			} else {
				neg += -w * x[i]
			}
		}
		y := int(float64(pos)/eta) - int(float64(neg)/eta)
		if y < 0 {
			y = 0
		}
		out[j] = spike.Clamp(y, window)
	}
	return out
}

// TestReferenceBatchMatchesNaive pins the batched reference path to the
// historical integer semantics element by element.
func TestReferenceBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	for _, tc := range []struct{ batch, rows, cols int }{
		{1, 16, 8}, {5, 40, 12}, {16, 256, 30},
	} {
		weights := randomWeights(rng, tc.rows, tc.cols, maxW)
		xb, err := Program(cfg, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A saturation-safe eta keeps the semantics in the regime the
		// synthesizer targets.
		xb.SetEta(float64(maxW * tc.rows / 4))
		src := make([]int, 0, tc.batch*tc.rows)
		for b := 0; b < tc.batch; b++ {
			src = append(src, randomCounts(rng, tc.rows, xb.Window())...)
		}
		dst := make([]int, tc.batch*tc.cols)
		if err := xb.ReferenceBatch(dst, src, tc.batch); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < tc.batch; b++ {
			want := referenceNaive(weights, src[b*tc.rows:(b+1)*tc.rows], xb.Eta(), xb.Window())
			for j := range want {
				if dst[b*tc.cols+j] != want[j] {
					t.Fatalf("%+v: out[%d,%d] = %d, want %d", tc, b, j, dst[b*tc.cols+j], want[j])
				}
			}
		}
	}
}

// TestSimulateCountsBatchMatchesTrains cross-checks the batched
// counts-level simulation against the train-level path with ideal
// neurons: identical conductances, identical uniform input trains, so
// the output counts must agree exactly — item by item, for ideal and
// noisy programming alike.
func TestSimulateCountsBatchMatchesTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	for _, noisy := range []bool{false, true} {
		c := cfg
		var prng *rand.Rand
		if noisy {
			c.Spec = device.Cell4BitMeasured
			prng = rand.New(rand.NewSource(17))
		}
		weights := randomWeights(rng, 48, 10, maxW)
		xb, err := Program(c, weights, prng)
		if err != nil {
			t.Fatal(err)
		}
		xb.SetEta(float64(maxW * 12))
		const batch = 6
		src := make([]int, 0, batch*48)
		for b := 0; b < batch; b++ {
			src = append(src, randomCounts(rng, 48, xb.Window())...)
		}
		dst := make([]int, batch*10)
		if err := xb.SimulateCountsBatch(dst, src, batch); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batch; b++ {
			ins := make([]spike.Train, 48)
			for i := range ins {
				ins[i] = spike.UniformTrain(src[b*48+i], xb.Window())
			}
			outs, err := xb.SimulateTrains(ins, func(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} })
			if err != nil {
				t.Fatal(err)
			}
			for j, tr := range outs {
				if dst[b*10+j] != tr.Count() {
					t.Fatalf("noisy=%v item %d col %d: batch %d, trains %d", noisy, b, j, dst[b*10+j], tr.Count())
				}
			}
		}
	}
}

// TestProgramDrawOrder pins the noisy programming draw order (column-
// major, positive before negative) that seeded variation streams across
// the stack depend on.
func TestProgramDrawOrder(t *testing.T) {
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	weights := [][]int{{3, -2}, {-1, 4}}
	xb, err := Program(cfg, weights, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			w := weights[i][j]
			pos, neg := 0, 0
			if w >= 0 {
				pos = w
			} else {
				neg = -w
			}
			gp := device.ProgramWeight(cfg.Rep, cfg.Spec, pos, rng)
			gn := device.ProgramWeight(cfg.Rep, cfg.Spec, neg, rng)
			if xb.posG[i*2+j] != gp || xb.negG[i*2+j] != gn {
				t.Fatalf("cell (%d,%d): got %g/%g, want %g/%g", i, j, xb.posG[i*2+j], xb.negG[i*2+j], gp, gn)
			}
		}
	}
}

func TestProgramValidation(t *testing.T) {
	cfg := testConfig(0)
	if _, err := Program(cfg, nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{}}, nil); err == nil {
		t.Error("zero-column matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{1, 2}, {3}}, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{cfg.Rep.MaxWeight() + 1}}, nil); err == nil {
		t.Error("overflowing weight accepted")
	}
	tall := make([][]int, cfg.Params.CrossbarRows+1)
	for i := range tall {
		tall[i] = []int{1}
	}
	if _, err := Program(cfg, tall, nil); err == nil {
		t.Error("too-tall matrix accepted")
	}
	xb, err := Program(cfg, [][]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.ReferenceBatch(make([]int, 2), make([]int, 3), 2); err == nil {
		t.Error("mis-sized batch input accepted")
	}
	if err := xb.SimulateCountsBatch(make([]int, 3), make([]int, 2), 2); err == nil {
		t.Error("mis-sized batch output accepted")
	}
	if _, err := xb.SimulateTrains(make([]spike.Train, 2), nil); err == nil {
		t.Error("wrong train count accepted")
	}
}

// BenchmarkVMMBatch times the dense reference kernel on the shapes that
// matter: the two layers of the serve_mlp_reference MLP (16×24 and 24×4 at
// batch 8 — rows short enough that per-row overhead dominates), a mid-size
// panel, and a zoo-MLP layer that spans many row panels.
func BenchmarkVMMBatch(b *testing.B) {
	for _, tc := range []struct{ batch, rows, cols int }{
		{8, 16, 24}, {8, 24, 4}, {8, 128, 64}, {64, 500, 100},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", tc.batch, tc.rows, tc.cols), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			in := make([]float64, tc.batch*tc.rows)
			for i := range in {
				in[i] = float64(rng.Intn(65)) // spike counts; a few are zero
			}
			w := make([]float64, tc.rows*tc.cols)
			for i := range w {
				w[i] = float64(rng.Intn(31) - 15)
			}
			out := make([]float64, tc.batch*tc.cols)
			for b.Loop() {
				VMMBatch(out, w, in, tc.batch, tc.rows, tc.cols)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.batch), "ns/sample")
		})
	}
}
