package xbar

import (
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// FuzzSimulateCountsPackedVsDense fuzzes the spiking kernel against its
// dense oracle: arbitrary count bytes against fixed ideal and noisy
// crossbars, requiring element-identical outputs. This is the deepest
// bit-exactness check — it exercises dead-cycle skipping, hot tails, the
// unit-major drive accumulation and column tabulation together. Each input runs
// against a dense random crossbar (with one all-zero column) and against
// the structured ones whose columns are tabulated: the block-diagonal
// pairwise-max diff crossbar and the mixed crossbar when ideal, a two-row
// crossbar (small support survives noisy zero cells) when noisy. Those all
// saturate; the ideal list also holds a dense 18×8 and a mixed crossbar at
// the synthesizer's η, whose walked columns take the integer-lane walk.
func FuzzSimulateCountsPackedVsDense(f *testing.F) {
	rng := rand.New(rand.NewSource(76))
	lrng := rand.New(rand.NewSource(77)) // its own stream: the older crossbars keep their weights
	ideal, _ := newFuzzCrossbar(rng, false)
	noisy, _ := newFuzzCrossbar(rng, true)
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	programmed := func(weights [][]int, eta float64, prng *rand.Rand) *Crossbar {
		c := cfg
		c.Eta = eta
		if prng != nil {
			c.Spec = device.Cell4BitMeasured
		}
		xb, err := Program(c, weights, prng)
		if err != nil {
			f.Fatal(err)
		}
		return xb
	}
	lanes := func(weights [][]int) *Crossbar {
		xb := programmed(weights, synthEta(weights), nil)
		if len(xb.walkCols) == 0 || !xb.laneEligible() {
			f.Fatalf("synth-η crossbar walks %v, lane eligible %v", xb.walkCols, xb.laneEligible())
		}
		return xb
	}
	xbars := map[bool][]*Crossbar{
		false: {ideal, programmed(pairwiseWeights(8, -maxW, maxW), float64(maxW), nil), programmed(mixedWeights(rng, maxW), float64(maxW), nil),
			lanes(randomWeights(lrng, 18, 8, maxW)), lanes(mixedWeights(lrng, maxW))},
		true: {noisy, programmed([][]int{{maxW, -3, 1}, {-2, maxW, -maxW}}, float64(maxW), rand.New(rand.NewSource(98)))},
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 0}, true)
	f.Add([]byte{64, 64, 64, 64, 64}, false)
	f.Add([]byte{1, 2, 3, 250, 130, 0, 7}, true)
	f.Fuzz(func(t *testing.T, countBytes []byte, useNoisy bool) {
		for xi, xb := range xbars[useNoisy] {
			rows, cols := xb.Rows(), xb.Cols()
			batch := len(countBytes)/rows + 1
			if batch > 6 {
				batch = 6
			}
			src := make([]int, batch*rows)
			for k := range src {
				if len(countBytes) > 0 {
					src[k] = int(countBytes[k%len(countBytes)]) // >window exercises clamping
				}
			}
			dense := make([]int, batch*cols)
			packed := make([]int, batch*cols)
			if err := xb.SimulateCountsBatchDense(dense, src, batch); err != nil {
				t.Fatal(err)
			}
			if err := xb.SimulateCountsBatch(packed, src, batch); err != nil {
				t.Fatal(err)
			}
			for k := range dense {
				if dense[k] != packed[k] {
					t.Fatalf("noisy=%v crossbar %d out[%d]: dense %d packed %d", useNoisy, xi, k, dense[k], packed[k])
				}
			}
		}
	})
}

// newFuzzCrossbar builds a small fixed crossbar for the kernel fuzzers.
func newFuzzCrossbar(rng *rand.Rand, noisy bool) (*Crossbar, [][]int) {
	cfg := testConfig(0)
	var prng *rand.Rand
	if noisy {
		cfg.Spec = device.Cell4BitMeasured
		prng = rand.New(rand.NewSource(99))
	}
	weights := randomWeights(rng, 33, 9, cfg.Rep.MaxWeight())
	for i := range weights { // an all-zero column: empty support
		weights[i][4] = 0
	}
	xb, err := Program(cfg, weights, prng)
	if err != nil {
		panic(err)
	}
	xb.SetEta(float64(cfg.Rep.MaxWeight()) * 4)
	return xb, weights
}
