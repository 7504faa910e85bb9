package xbar

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// TestDenseOracleOutputsPinned pins what SimulateCountsBatchDense — the
// oracle every kernel property, fuzz and benchmark suite is held to —
// answers over a fixed table: ideal, noisy and stuck-high-faulted
// crossbars, at the synthesizer's η, 0.5, 0 and −1 (set with SetEta), at
// Γ = 16, 64 and 128, each fed one batch mixing silent, sparse, dense and
// saturated (clamped) items. The digest was first recorded at bba02e9,
// where the oracle was still the hand-written dense cycle walk, with a
// fourth, drift+read-σ kind; it was re-recorded once, by running this file
// without that kind against fb6578c's oracle, when the analog aging
// effects were removed. Whatever the oracle is built from must answer the
// same counts. Never re-record it to make an oracle change pass.
func TestDenseOracleOutputsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	h := fnv.New64a()
	var buf [8]byte
	const rows, cols = 37, 11
	densities := []float64{0, 0.03, 0.1, 0.3, 0.7, 1}
	for _, ioBits := range []int{4, 6, 7} {
		for _, kind := range []string{"ideal", "noisy", "stuck-high"} {
			cfg := structuredConfig(ioBits, kind == "noisy")
			weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
			var prng *rand.Rand
			if kind == "noisy" {
				prng = rand.New(rand.NewSource(rng.Int63()))
			}
			if kind == "stuck-high" {
				fm := device.FaultMap{Rows: rows, Cols: cols}
				for i := 0; i < rows; i += 3 {
					fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: i % cols, Kind: device.FaultStuckHigh})
				}
				if err := fm.Validate(); err != nil {
					t.Fatal(err)
				}
				mask := fm.MaskFor(rows, cols, false)
				cfg.Faults = &mask
			}
			xb, err := Program(cfg, weights, prng)
			if err != nil {
				t.Fatal(err)
			}
			for _, eta := range []float64{synthEta(weights), 0.5, 0, -1} {
				xb.SetEta(eta)
				src := make([]int, 0, len(densities)*rows)
				for _, d := range densities {
					src = append(src, countsAtDensity(rng, rows, xb.Window(), d)...)
				}
				src[rows] = xb.Window() + 5 // a count above Γ is clamped
				dst := make([]int, len(densities)*cols)
				if err := xb.SimulateCountsBatchDense(dst, src, len(densities)); err != nil {
					t.Fatal(err)
				}
				for _, v := range dst {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xe2222687efaf891c); got != want {
		t.Errorf("oracle digest = %#x, want %#x", got, want)
	}
}
