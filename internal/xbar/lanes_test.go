package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// laneBody names one body of the integer-lane and float walks: avx2 is the
// value of laneAVX2 that selects it.
type laneBody struct {
	name string
	avx2 bool
}

// laneBodies lists the walk bodies this CPU runs: the portable ones always,
// the AVX2 ones when the CPU has it.
func laneBodies() []laneBody {
	bodies := []laneBody{{"portable", false}}
	if hasAVX2 {
		bodies = append(bodies, laneBody{"avx2", true})
	}
	return bodies
}

// useLaneBody selects a walk body until the returned func restores the
// previous one. No test in this package runs in parallel, so nothing else
// reads laneAVX2 meanwhile.
func useLaneBody(avx2 bool) (restore func()) {
	old := laneAVX2
	laneAVX2 = avx2
	return func() { laneAVX2 = old }
}

// TestSilentTrains pins the table the lane walk reads a count above Γ/2
// from: for every count, its silent cycles and its uniformTrains firing
// cycles partition the window's cycles — none in both, none missing, and
// none at or past Γ, so neither body can step a drive row outside the
// window.
func TestSilentTrains(t *testing.T) {
	for _, window := range []int{1, 2, 16, 63, 64, 65, 128} {
		fire, silent, lanes := uniformTrains(window), silentTrains(window), spike.Lanes(window)
		for count := 0; count <= window; count++ {
			for l := 0; l < lanes; l++ {
				f, s := fire[count*lanes+l], silent[count*lanes+l]
				cycles := ^uint64(0)
				if rest := window - 64*l; rest < 64 {
					cycles = 1<<uint(rest) - 1
				}
				if f&s != 0 || f|s != cycles {
					t.Fatalf("Γ=%d count %d word %d: fires %#x, silent %#x, window %#x", window, count, l, f, s, cycles)
				}
			}
		}
	}
}

// FuzzLaneBodiesAgree holds the AVX2 lane walk to the portable one: a random
// lane-eligible crossbar — ideal programming, 1–256 rows (the conv
// workload's pool crossbar has 200) and 1–256 columns (widths either side of
// the eight-column half-block row and of every 16-column block), a share of
// zero cells so some columns are tabulated beside the walked ones, Γ = 16,
// 64 or 128 and an integer η from the synthesizer's up to 2^14 − 1 — fed a
// batch of counts from the input bytes, some above Γ, must give identical
// outputs under both bodies. Seed corpus under
// testdata/fuzz/FuzzLaneBodiesAgree, with the edge widths and 200 and 256
// rows; CI runs a short -fuzztime smoke pass.
func FuzzLaneBodiesAgree(f *testing.F) {
	if !hasAVX2 {
		f.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	f.Add(int64(1), uint8(17), uint8(15), uint8(1), uint16(0), uint8(0), []byte{0, 64, 65, 200, 32, 33, 1})
	f.Add(int64(2), uint8(127), uint8(32), uint8(2), uint16(9), uint8(128), []byte{128, 127, 3})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8 uint8, slack uint16, zeros uint8, countBytes []byte) {
		rows, cols := int(rows8)+1, int(cols8)+1
		cfg := structuredConfig([]int{4, 6, 7}[io8%3], false)
		rng := rand.New(rand.NewSource(seed))
		weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
		for i := range weights {
			for j := range weights[i] {
				if rng.Intn(256) < int(zeros) {
					weights[i][j] = 0
				}
			}
		}
		cfg.Eta = min(synthEta(weights)+float64(slack), maxLaneEta-1)
		xb, err := Program(cfg, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !xb.laneEligible() {
			t.Fatalf("%dx%d at η %g: not lane-eligible", rows, cols, cfg.Eta)
		}
		window := xb.Window()
		batch := min(len(countBytes)/rows+1, 4)
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) > 0 {
				src[k] = int(countBytes[k%len(countBytes)]) % (window + 3)
			}
		}
		if got, want := bodyOutputs(t, xb, src, batch); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%dx%d Γ %d η %g, %d walked: avx2 %v, portable %v", rows, cols, window, cfg.Eta, len(xb.walkCols), got, want)
		}
	})
}

// bodyOutputs runs one batch through SimulateCountsBatch under the AVX2 and
// the portable walk bodies and returns both outputs.
func bodyOutputs(t *testing.T, xb *Crossbar, src []int, batch int) (avx2, portable []int) {
	t.Helper()
	outs := make(map[bool][]int)
	for _, body := range laneBodies() {
		restore := useLaneBody(body.avx2)
		dst := make([]int, batch*xb.Cols())
		err := xb.SimulateCountsBatch(dst, src, batch)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		outs[body.avx2] = dst
	}
	return outs[true], outs[false]
}

// FuzzFloatBodiesAgree holds the AVX2 float walk to the portable one: a
// random crossbar of up to 128 rows and 1–64 columns (either side of every
// 4-column block) with fractional conductances, which keep it off the
// integer lanes — noisy programming, ideal programming with drift and
// read-σ, or noisy programming with stuck cells (kind%3) — at Γ = 16, 64 or
// 128 and η = etaScale × the synthesizer's η, where any float64 scale is
// allowed (NaN, ±Inf, ±0, negative, tiny), fed a batch of counts from the
// input bytes, some below 0 and some above Γ, must give identical outputs
// under both bodies. Seed corpus under testdata/fuzz/FuzzFloatBodiesAgree,
// with the block-edge widths; CI runs a short -fuzztime smoke pass.
func FuzzFloatBodiesAgree(f *testing.F) {
	if !hasAVX2 {
		f.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	f.Add(int64(1), uint8(15), uint8(23), uint8(1), uint8(0), 1.0, []byte{0, 6, 0, 0, 9, 5, 0, 7})
	f.Add(int64(2), uint8(40), uint8(4), uint8(2), uint8(2), 0.25, []byte{130, 64, 63, 1, 255})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8, kind uint8, etaScale float64, countBytes []byte) {
		rows, cols := int(rows8)%128+1, int(cols8)%64+1
		noisy := kind%3 != 1
		cfg := structuredConfig([]int{4, 6, 7}[io8%3], noisy)
		rng := rand.New(rand.NewSource(seed))
		weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
		fm := device.FaultMap{Rows: rows, Cols: cols}
		switch kind % 3 {
		case 1:
			fm.Drift, fm.ReadSigma, fm.ReadSeed = 0.1, 0.05, seed
		case 2:
			for k := 0; k < rows*cols; k++ { // row-major: the canonical order
				if fk := device.FaultKind(rng.Intn(32)); fk == device.FaultStuckLow || fk == device.FaultStuckHigh {
					fm.Cells = append(fm.Cells, device.FaultCell{Row: k / cols, Col: k % cols, Kind: fk})
				}
			}
		}
		if err := fm.Validate(); err != nil {
			t.Fatal(err)
		}
		mask := fm.MaskFor(rows, cols, false)
		cfg.Faults = &mask
		var prng *rand.Rand
		if noisy {
			prng = rand.New(rand.NewSource(seed + 1))
		}
		xb, err := Program(cfg, weights, prng)
		if err != nil {
			t.Fatal(err)
		}
		xb.SetEta(etaScale * synthEta(weights))
		window := xb.Window()
		batch := min(len(countBytes)/rows+1, 4)
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) > 0 {
				src[k] = int(countBytes[k%len(countBytes)])%(window+9) - 4
			}
		}
		if got, want := bodyOutputs(t, xb, src, batch); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%dx%d kind %d Γ %d η %g, %d walked: avx2 %v, portable %v", rows, cols, kind%3, window, xb.Eta(), len(xb.walkCols), got, want)
		}
	})
}
