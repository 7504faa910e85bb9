package xbar

import (
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// FuzzVMMBatchPackedVsDense feeds arbitrary mask bytes and shapes to the
// packed binary kernel and requires bit-identical float output to
// VMMBatch over the equivalent 0/1 input vector — the accumulation-order
// contract the sparse spiking path is built on. Weights are derived
// deterministically from a fuzzed seed so the corpus stays byte-based.
// Seed corpus under testdata/fuzz/FuzzVMMBatchPackedVsDense; CI runs a
// short -fuzztime smoke pass.
func FuzzVMMBatchPackedVsDense(f *testing.F) {
	f.Add([]byte{0xff}, 1, 1, 1, int64(1))
	f.Add([]byte{0xaa, 0x55, 0x00, 0x01}, 2, 65, 4, int64(7))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, 3, 64, 3, int64(42))
	f.Fuzz(func(t *testing.T, maskBytes []byte, batch, rows, cols int, seed int64) {
		if batch < 1 || batch > 8 || rows < 1 || rows > 300 || cols < 1 || cols > 32 {
			t.Skip()
		}
		lanes := spike.Lanes(rows)
		masks := make([]uint64, batch*lanes)
		in := make([]float64, batch*rows)
		for b := 0; b < batch; b++ {
			for i := 0; i < rows; i++ {
				k := b*rows + i
				if len(maskBytes) > 0 && maskBytes[k%len(maskBytes)]&(1<<uint(k&7)) != 0 {
					masks[b*lanes+i>>6] |= 1 << uint(i&63)
					in[k] = 1
				}
			}
			// Stray high bits past rows must be ignored by the kernel.
			if r := rows & 63; r != 0 && len(maskBytes) > 0 && maskBytes[0]&1 != 0 {
				masks[b*lanes+lanes-1] |= ^(uint64(1)<<uint(r) - 1)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, rows*cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		want := make([]float64, batch*cols)
		got := make([]float64, batch*cols)
		VMMBatch(want, w, in, batch, rows, cols)
		VMMBatchPacked(got, w, masks, batch, rows, cols)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("shape b%d r%d c%d: out[%d] = %x, want %x", batch, rows, cols, k, got[k], want[k])
			}
		}
	})
}

// FuzzSimulateCountsPackedVsDense fuzzes the full spiking kernel pair:
// arbitrary count bytes against fixed ideal and noisy crossbars, requiring
// element-identical outputs. This is the deepest bit-exactness check — it
// exercises count grouping, dead-cycle skipping, hot tails, the unit-major
// drive accumulation and column tabulation together. Each input runs
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
			if err := xb.SimulateCountsBatchPacked(packed, src, batch); err != nil {
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
