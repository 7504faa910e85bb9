package xbar

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// TestReferenceOutputsPinned pins what ReferenceBatch answers over a fixed
// table: ideal, stuck-low and stuck-high crossbars at Γ = 16, 64 and 128;
// rows 31, 32 and 33 (either side of the row panel) and 256; cols either
// side of the 4- and 8-wide register blocks; batches of 1 and 64, the
// larger holding one all-zero and one all-Γ item; and at η = maxW (the
// programmed default), the synthesizer's safe η, a fractional η and 2.5,
// each set with SetEta. Every count is in [0, Γ], so the digest depends on
// nothing but the reference semantics. It was recorded on the float kernel
// that ran two float64 products per crossbar; whatever the kernel is built
// from must answer the same counts. Never re-record it to make a kernel
// change pass. It runs under each body of the reference kernel the CPU
// has, and both must give the same digest.
func TestReferenceOutputsPinned(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testReferenceOutputsPinned(t)
		})
	}
}

func testReferenceOutputsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2601))
	h := fnv.New64a()
	var buf [8]byte
	mid := 0 // outputs strictly inside (0, Γ): the table is not all floors and ceilings
	for _, ioBits := range []int{4, 6, 7} {
		for _, kind := range []string{"ideal", "stuck-low", "stuck-high"} {
			for _, rows := range []int{31, 32, 33, 256} {
				for _, cols := range []int{3, 4, 5, 7, 8, 9} {
					cfg := structuredConfig(ioBits, false)
					maxW := cfg.Rep.MaxWeight()
					weights := randomWeights(rng, rows, cols, maxW)
					if kind != "ideal" {
						stuck := device.FaultStuckLow
						if kind == "stuck-high" {
							stuck = device.FaultStuckHigh
						}
						fm := device.FaultMap{Rows: rows, Cols: cols}
						for i := 0; i < rows; i += 2 {
							fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: (i / 2) % cols, Kind: stuck})
						}
						if err := fm.Validate(); err != nil {
							t.Fatal(err)
						}
						mask := fm.MaskFor(rows, cols, false)
						cfg.Faults = &mask
					}
					xb, err := Program(cfg, weights, nil)
					if err != nil {
						t.Fatal(err)
					}
					if xb.Eta() != float64(maxW) {
						t.Fatalf("default η = %g, want maxW %d", xb.Eta(), maxW)
					}
					se := synthEta(weights)
					for _, eta := range []float64{float64(maxW), se, se/3 + 0.37, 2.5} {
						xb.SetEta(eta)
						for _, batch := range []int{1, 64} {
							window := xb.Window()
							src := make([]int, 0, batch*rows)
							for b := 0; b < batch; b++ {
								src = append(src, randomCounts(rng, rows, window)...)
							}
							if batch > 1 {
								for i := 0; i < rows; i++ {
									src[i], src[rows+i] = 0, window
								}
							}
							dst := make([]int, batch*cols)
							if err := xb.ReferenceBatch(dst, src, batch); err != nil {
								t.Fatal(err)
							}
							for _, v := range dst {
								if v > 0 && v < window {
									mid++
								}
								binary.LittleEndian.PutUint64(buf[:], uint64(v))
								h.Write(buf[:])
							}
						}
					}
				}
			}
		}
	}
	if mid == 0 {
		t.Fatal("no output strictly between 0 and Γ")
	}
	if got, want := h.Sum64(), uint64(0x9a599e35eb316816); got != want {
		t.Errorf("reference digest = %#x, want %#x", got, want)
	}
}
