package xbar

import (
	"math/rand"
	"testing"
)

// prefixReference is the closed form of the spiking count on a
// lane-eligible crossbar (docs/INVARIANTS.md, "Integer lanes"): for every
// item and column, the largest ReferenceBatch output over the prefixes
// ⌊s·c/Γ⌋, s ∈ [0, Γ], of its clamped input counts c — what the uniform
// trains have delivered by cycle s. The s = Γ term is ReferenceBatch itself,
// which the second result holds.
func prefixReference(t *testing.T, xb *Crossbar, src []int, batch int) (best, reference []int) {
	t.Helper()
	window := xb.Window()
	best = make([]int, batch*xb.Cols())
	out := make([]int, len(best))
	prefix := make([]int, len(src))
	for s := 0; s <= window; s++ {
		for k, c := range src {
			prefix[k] = s * min(max(c, 0), window) / window
		}
		if err := xb.ReferenceBatch(out, prefix, batch); err != nil {
			t.Fatal(err)
		}
		for k, y := range out {
			best[k] = max(best[k], y)
		}
	}
	return best, out
}

// checkPrefixIdentity runs one batch through SimulateCountsBatch under each
// walk body the CPU has and requires the closed form: every output equals
// prefixReference's maximum and exceeds ReferenceBatch by 0, 1 or 2.
func checkPrefixIdentity(t *testing.T, label string, xb *Crossbar, src []int, batch int) {
	t.Helper()
	if !xb.laneEligible() {
		t.Fatalf("%s: not lane-eligible (η %g, max column drive %g)", label, xb.Eta(), xb.maxDrive)
	}
	best, reference := prefixReference(t, xb, src, batch)
	for _, body := range laneBodies() {
		restore := useLaneBody(body.avx2)
		got := make([]int, len(best))
		err := xb.SimulateCountsBatch(got, src, batch)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != best[k] {
				t.Fatalf("%s/%s item %d column %d: spiking %d, max over prefixes of the reference %d",
					label, body.name, k/xb.Cols(), k%xb.Cols(), got[k], best[k])
			}
			if excess := got[k] - reference[k]; excess < 0 || excess > 2 {
				t.Fatalf("%s/%s item %d column %d: spiking %d, reference %d: excess outside [0, 2]",
					label, body.name, k/xb.Cols(), k%xb.Cols(), got[k], reference[k])
			}
		}
	}
}

// laneEligibleCrossbar programs a random ideal crossbar whose η is the
// synthesizer's (the largest per-polarity column sum) plus slack, so every
// column drive stays at or below η: the conditions of laneEligible.
func laneEligibleCrossbar(t *testing.T, rng *rand.Rand, rows, cols, ioBits, slack, zeroShare int) *Crossbar {
	t.Helper()
	cfg := structuredConfig(ioBits, false)
	weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
	for i := range weights {
		for j := range weights[i] {
			if rng.Intn(256) < zeroShare {
				weights[i][j] = 0
			}
		}
	}
	cfg.Eta = min(synthEta(weights)+float64(slack), maxLaneEta-1)
	xb, err := Program(cfg, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	return xb
}

// TestSpikingIsBestPrefixOfReference pins the closed form of the spiking
// count on lane-eligible crossbars of the shapes the synthesizer emits —
// conv 18×8, the MLP's 16×24 and 24×4, a 200×8 global-average pool and
// wider ones either side of a lane block — at the synthesizer's η and a
// little above it, under both walk bodies, on random counts including
// some outside [0, Γ].
func TestSpikingIsBestPrefixOfReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct{ rows, cols int }{{18, 8}, {16, 24}, {24, 4}, {200, 8}, {48, 48}, {9, 17}, {1, 1}}
	for _, sh := range shapes {
		for _, ioBits := range []int{4, 6} {
			for _, slack := range []int{0, 3} {
				xb := laneEligibleCrossbar(t, rng, sh.rows, sh.cols, ioBits, slack, 64)
				const batch = 16
				src := make([]int, batch*sh.rows)
				for k := range src {
					src[k] = rng.Intn(xb.Window()+5) - 2
				}
				checkPrefixIdentity(t, "shape", xb, src, batch)
			}
		}
	}
}

// FuzzSpikingIsBestPrefixOfReference holds the closed form on random
// lane-eligible crossbars of 1–256 rows and 1–256 columns at Γ = 16, 64 or
// 128, η the synthesizer's plus any slack the lanes hold, some weights
// zeroed, and a batch of counts from the input bytes, some above Γ. It runs
// under each walk body the CPU has; CI runs a short -fuzztime smoke pass.
func FuzzSpikingIsBestPrefixOfReference(f *testing.F) {
	f.Add(int64(1), uint8(17), uint8(15), uint8(1), uint16(0), uint8(0), []byte{0, 64, 65, 200, 32, 33, 1})
	f.Add(int64(2), uint8(127), uint8(32), uint8(2), uint16(9), uint8(128), []byte{128, 127, 3})
	f.Add(int64(3), uint8(17), uint8(7), uint8(1), uint16(0), uint8(32), []byte{63, 1, 64, 17, 5})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8 uint8, slack uint16, zeros uint8, countBytes []byte) {
		rows, cols := int(rows8)+1, int(cols8)+1
		rng := rand.New(rand.NewSource(seed))
		xb := laneEligibleCrossbar(t, rng, rows, cols, []int{4, 6, 7}[io8%3], int(slack), int(zeros))
		batch := min(len(countBytes)/rows+1, 4)
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) > 0 {
				src[k] = int(countBytes[k%len(countBytes)]) % (xb.Window() + 3)
			}
		}
		checkPrefixIdentity(t, "fuzz", xb, src, batch)
	})
}
