package xbar

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestLaneWalkOutputsPinned pins what the integer-lane walk answers on the
// lane-eligible crossbars the workloads run, each ideally programmed at the
// synthesizer's η: offline_conv_spiking's 18×8 conv, 200×8 global-average
// pool and 8×4 FC crossbars, fleet_mixed's 24×4, 48×4, 16×24 and 48×48 MLP
// crossbars, all at Γ = 64, and the 8×4 crossbar again at Γ = 16 and 128.
// Each is fed one batch holding an all-zero, an all-Γ, an all-above-Γ and
// a half-window item, then items mixing silent rows, counts below 0 and
// far above Γ (both clamped) and uniform counts, in calls of a few items.
// Each shape has its own digest, recorded on the walk before grouping moved
// into the AVX2 body and lane rows of at most eight columns became one
// 256-bit block; whatever the walk is built from must answer the same
// counts. Never re-record them to make a kernel change pass. It runs under
// each body the CPU has, and both must give the same digests. After every
// call countG and present must be all zero: the next item's grouping only
// adds and sets bits.
func TestLaneWalkOutputsPinned(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testLaneWalkOutputsPinned(t)
		})
	}
}

func testLaneWalkOutputsPinned(t *testing.T) {
	maxW := testConfig(0).Rep.MaxWeight()
	rng := rand.New(rand.NewSource(3301))
	for _, tc := range []struct {
		name    string
		ioBits  int
		weights [][]int
		want    uint64
	}{
		{"conv18x8", 6, randomWeights(rng, 18, 8, maxW), 0xe288943399177090},
		{"gap200x8", 6, avgPoolWeights(25, 8, maxW/25), 0x2c2f34812aa0354d},
		{"fc8x4", 6, randomWeights(rng, 8, 4, maxW), 0xc3b51860d58de2c4},
		{"mlp24x4", 6, randomWeights(rng, 24, 4, maxW), 0xf700482034e9ab9c},
		{"mlp48x4", 6, randomWeights(rng, 48, 4, maxW), 0x439e8e7cf50a911a},
		{"mlp16x24", 6, randomWeights(rng, 16, 24, maxW), 0x5880dd29f66409bf},
		{"mlp48x48", 6, randomWeights(rng, 48, 48, maxW), 0xec765067003d8d62},
		{"fc8x4/Γ=16", 4, randomWeights(rng, 8, 4, maxW), 0x34c2bf9ce8980284},
		{"fc8x4/Γ=128", 7, randomWeights(rng, 8, 4, maxW), 0xdfed5e81fd96d463},
	} {
		cfg := structuredConfig(tc.ioBits, false)
		cfg.Eta = synthEta(tc.weights)
		xb, err := Program(cfg, tc.weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols, window := xb.Rows(), xb.Cols(), xb.Window()
		if len(xb.walkCols) != cols || !xb.laneEligible() {
			t.Fatalf("%s: walked %v eligible %v, want every column in lanes", tc.name, xb.walkCols, xb.laneEligible())
		}
		const batch = 40
		src := structuredCounts(rng, batch, rows, window)
		for i := 0; i < rows; i++ {
			src[i] = 0
			src[rows+i] = window
			src[2*rows+i] = window + 1 + i
			src[3*rows+i] = window / 2
		}
		for k := 4 * rows; k < len(src); k += 7 {
			src[k] = []int{-1, 1 << 40, -1 << 40}[k%3]
		}
		dst := make([]int, batch*cols)
		for b := 0; b < batch; {
			n := min(1+b%3, batch-b)
			if err := xb.SimulateCountsBatch(dst[b*cols:(b+n)*cols], src[b*rows:(b+n)*rows], n); err != nil {
				t.Fatal(err)
			}
			for k, w := range xb.countG {
				if w != 0 {
					t.Fatalf("%s: after items %d–%d countG[%d] = %#x, want 0", tc.name, b, b+n-1, k, w)
				}
			}
			for k, w := range xb.present {
				if w != 0 {
					t.Fatalf("%s: after items %d–%d present[%d] = %#x, want 0", tc.name, b, b+n-1, k, w)
				}
			}
			b += n
		}
		h := fnv.New64a()
		var buf [8]byte
		mid := false // outputs strictly inside (0, Γ): the items are not all floors and ceilings
		for _, v := range dst {
			mid = mid || v > 0 && v < window
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		if !mid {
			t.Errorf("%s: no output strictly between 0 and Γ", tc.name)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: lane walk digest = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
