package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// BenchmarkSimulateCounts times the dense oracle and the kernel across
// input spike densities on a serving-shaped crossbar at a saturating η — the
// float walk — for ideal and for noisy programming. The kernel's win comes
// from dropping silent rows and skipping dead cycles; it is ahead of the
// oracle at every density on both, which is why nothing chooses between
// them (docs/ARCHITECTURE.md, "Decision recorded: the kernel does not
// choose").
func BenchmarkSimulateCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	const batch, rows, cols = 16, 48, 24
	for _, noisy := range []bool{false, true} {
		cfg := testConfig(0)
		var prng *rand.Rand
		label := "ideal"
		if noisy {
			cfg.Spec = device.Cell4BitMeasured
			prng = rand.New(rand.NewSource(17))
			label = "noisy"
		}
		weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
		xb, err := Program(cfg, weights, prng)
		if err != nil {
			b.Fatal(err)
		}
		xb.SetEta(float64(cfg.Rep.MaxWeight()) * 12)
		for _, d := range []float64{0.02, 0.05, 0.1, 0.3, 0.6, 1.0} {
			src := make([]int, 0, batch*rows)
			for i := 0; i < batch; i++ {
				src = append(src, countsAtDensity(rng, rows, xb.Window(), d)...)
			}
			dst := make([]int, batch*cols)
			b.Run(fmt.Sprintf("%s/oracle/d=%.2f", label, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := xb.SimulateCountsBatchDense(dst, src, batch); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/kernel/d=%.2f", label, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := xb.SimulateCountsBatch(dst, src, batch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// pairwiseWeights builds the synthesizer's two-row block-diagonal
// structure (internal/synth/poolexec.go): column c reads rows 2c and 2c+1
// with weights a and b. (−maxW, maxW) is the pairwise-max diff crossbar,
// (maxW, maxW) its comb crossbar and the residual add.
func pairwiseWeights(width, a, b int) [][]int {
	w := make([][]int, 2*width)
	for i := range w {
		w[i] = make([]int, width)
	}
	for c := 0; c < width; c++ {
		w[2*c][c] = a
		w[2*c+1][c] = b
	}
	return w
}

// synthEta is the threshold internal/synth's safeEta gives a weight tile:
// the largest per-polarity column sum, at least 1. A neuron under it can
// never be driven past η in one cycle.
func synthEta(weights [][]int) float64 {
	worst := 1
	for j := range weights[0] {
		pos, neg := 0, 0
		for i := range weights {
			if w := weights[i][j]; w >= 0 {
				pos += w
			} else {
				neg -= w
			}
		}
		worst = max(worst, pos, neg)
	}
	return float64(worst)
}

// BenchmarkSimulateCountsStructured times SimulateCountsBatch per item on
// the crossbar shapes that split offline_conv_spiking's kernel time, all
// ideally programmed: the 16×8 pairwise-max diff crossbar (every column
// reads two rows — tabulated) and a dense 18×8 conv crossbar, once at
// η = 4·maxW, where columns saturate and the float walk runs (its
// regression guard), and once at the synthesizer's η, the integer-lane walk
// the workload actually takes, then its 200×8 global-average pool (25 rows
// per column) and 8×4 FC crossbars at theirs; then fleet_mixed's spiking
// MLP crossbars, 16×24, 16×48, 48×48 and 24×4, at the synthesizer's η
// (integer lanes; every shape of at most eight columns takes half-block
// lane rows); and last
// offline_mlp_noisy_sparse's kernel traffic, the 16×24 crossbar programmed
// with Cell4BitMeasured variation at the synthesizer's η (the float walk)
// and fed counts at density 0.03. Every shape runs once under each body
// the CPU has (portable, avx2), so one binary gives both bodies' ns/item.
// Every item is a fresh random count vector drawn inside the loop (an
// inline xorshift, a few ns per item), so no input vector ever repeats:
// whatever the kernel gains here it gains from the crossbar's structure,
// not from input reuse.
func BenchmarkSimulateCountsStructured(b *testing.B) {
	const batch = 16
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	rng := rand.New(rand.NewSource(83))
	conv := randomWeights(rng, 18, 8, maxW)
	mlp16x24 := randomWeights(rng, 16, 24, maxW)
	mlp16x48 := randomWeights(rng, 16, 48, maxW)
	mlp48x48 := randomWeights(rng, 48, 48, maxW)
	gap := avgPoolWeights(25, 8, maxW/25)
	fc := randomWeights(rng, 8, 4, maxW)
	mlp24x4 := randomWeights(rng, 24, 4, maxW)
	shapes := []struct {
		name    string
		weights [][]int
		eta     float64
		noisy   bool
		density float64 // 0: counts uniform over [0, Γ]
	}{
		{"pmax16x8", pairwiseWeights(8, -maxW, maxW), float64(maxW), false, 0},
		{"conv18x8", conv, float64(4 * maxW), false, 0},
		{"conv18x8-syntheta", conv, synthEta(conv), false, 0},
		{"gap200x8", gap, synthEta(gap), false, 0},
		{"fc8x4", fc, synthEta(fc), false, 0},
		{"mlp16x24", mlp16x24, synthEta(mlp16x24), false, 0},
		{"mlp16x48", mlp16x48, synthEta(mlp16x48), false, 0},
		{"mlp48x48", mlp48x48, synthEta(mlp48x48), false, 0},
		{"mlp24x4", mlp24x4, synthEta(mlp24x4), false, 0},
		{"mlp16x24-noisy", mlp16x24, synthEta(mlp16x24), true, 0.03},
	}
	for _, sh := range shapes {
		for _, body := range laneBodies() {
			b.Run(sh.name+"/"+body.name, func(b *testing.B) {
				defer useLaneBody(body.avx2)()
				c := cfg
				var prng *rand.Rand
				if sh.noisy {
					c.Spec = device.Cell4BitMeasured
					prng = rand.New(rand.NewSource(84))
				}
				benchStructured(b, c, sh.weights, sh.eta, prng, sh.density, batch)
			})
		}
	}
}

// benchStructured programs one crossbar at η (from prng, nil for ideal
// programming) and times SimulateCountsBatch per item on never-repeating
// count vectors: uniform over [0, Γ] at density 0, else drawn the way
// countsAtDensity draws them — half the rows silent, the rest uniform over
// [0, 4·density·Γ].
func benchStructured(b *testing.B, cfg Config, weights [][]int, eta float64, prng *rand.Rand, density float64, batch int) {
	cfg.Eta = eta
	xb, err := Program(cfg, weights, prng)
	if err != nil {
		b.Fatal(err)
	}
	rows, window := xb.Rows(), uint64(xb.Window())
	top, silent := window, uint64(0)
	if density > 0 {
		top, silent = uint64(4*density*float64(window)), 1
	}
	src := make([]int, batch*rows)
	dst := make([]int, batch*xb.Cols())
	state := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range src {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			src[k] = 0
			if state&silent == 0 {
				src[k] = int(state >> silent % (top + 1))
			}
		}
		if err := xb.SimulateCountsBatch(dst, src, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/item")
}
