package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/hostcpu"
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
	if hostcpu.AVX2 {
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
	if !hostcpu.AVX2 {
		f.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	f.Add(int64(1), uint8(17), uint8(15), uint8(1), uint16(0), uint8(0), []byte{0, 64, 65, 200, 32, 33, 1})
	f.Add(int64(2), uint8(127), uint8(32), uint8(2), uint16(9), uint8(128), []byte{128, 127, 3})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8 uint8, slack uint16, zeros uint8, countBytes []byte) {
		rows, cols := int(rows8)+1, int(cols8)+1
		rng := rand.New(rand.NewSource(seed))
		xb := laneEligibleCrossbar(t, rng, rows, cols, []int{4, 6, 7}[io8%3], int(slack), int(zeros))
		if !xb.laneEligible() {
			t.Fatalf("%dx%d at η %g: not lane-eligible", rows, cols, xb.Eta())
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
			t.Fatalf("%dx%d Γ %d η %g, %d walked: avx2 %v, portable %v", rows, cols, window, xb.Eta(), len(xb.walkCols), got, want)
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
// 4-column block) that the integer lanes cannot take — noisy programming,
// ideal programming with one cell in eight stuck high (98 % of such
// crossbars have a column lifted over the synthesizer's η), or noisy
// programming with stuck cells of both kinds (kind%3) — at Γ = 16, 64 or
// 128 and η = etaScale × the synthesizer's η, where any float64 scale is
// allowed (NaN, ±Inf, ±0, negative, tiny), fed a batch of counts from the
// input bytes, some below 0 and some above Γ, must give identical outputs
// under both bodies. Seed corpus under testdata/fuzz/FuzzFloatBodiesAgree,
// with the block-edge widths; CI runs a short -fuzztime smoke pass.
func FuzzFloatBodiesAgree(f *testing.F) {
	if !hostcpu.AVX2 {
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
			for k := 0; k < rows*cols; k++ { // row-major: the canonical order
				if rng.Intn(8) == 0 {
					fm.Cells = append(fm.Cells, device.FaultCell{Row: k / cols, Col: k % cols, Kind: device.FaultStuckHigh})
				}
			}
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

// TestHalfBlockDriveRowsStayZero: on half-block lane rows the AVX2 body has
// no fill — the next item's accumulate adds into the drive rows as it finds
// them — so after every call each drive row must be zero again. Half-block
// crossbars at Γ = 16/64/128, fed all-zero, all-Γ, clamped and random items
// in calls of one to three.
func TestHalfBlockDriveRowsStayZero(t *testing.T) {
	if !hostcpu.AVX2 {
		t.Skip("the CPU has no AVX2: the portable body keeps no drive rows between items")
	}
	defer useLaneBody(true)()
	rng := rand.New(rand.NewSource(5407))
	for _, ioBits := range []int{4, 6, 7} {
		for _, shape := range [][2]int{{18, 8}, {8, 4}, {24, 1}} {
			cfg := structuredConfig(ioBits, false)
			weights := randomWeights(rng, shape[0], shape[1], cfg.Rep.MaxWeight())
			cfg.Eta = synthEta(weights)
			xb, err := Program(cfg, weights, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !xb.laneEligible() || xb.negFree || xb.laneHalf() != 2 || len(xb.walkCols) == 0 {
				t.Fatalf("Γ %d %v: want a half-block lane walk (eligible %v, negative-free %v, half %d)",
					xb.Window(), shape, xb.laneEligible(), xb.negFree, xb.laneHalf())
			}
			rows, window := xb.Rows(), xb.Window()
			const batch = 12
			src := structuredCounts(rng, batch, rows, window)
			for i := range rows {
				src[i], src[rows+i], src[2*rows+i] = 0, window, -1+(window+2)*(i%2)
			}
			dst := make([]int, batch*xb.Cols())
			for b := 0; b < batch; {
				n := min(1+b%3, batch-b)
				if err := xb.SimulateCountsBatch(dst[b*xb.Cols():(b+n)*xb.Cols()], src[b*rows:(b+n)*rows], n); err != nil {
					t.Fatal(err)
				}
				for k, w := range xb.laneDrvAVX2 {
					if w != 0 {
						t.Fatalf("Γ %d %v: after items %d–%d laneDrvAVX2[%d] = %#x, want 0", window, shape, b, b+n-1, k, w)
					}
				}
				b += n
			}
			assertPackedMatchesDense(t, fmt.Sprintf("Γ=%d %v", window, shape), xb, src, batch)
		}
	}
}

// TestFloatScratchStaysZero: both float-walk bodies add into floatDrv and
// OR into floatLive as they find them, so each must leave both zero, across
// their whole capacity, after every item. Crossbars off the integer lanes
// at Γ = 16/64/128 — ideal at a saturating η (the hot drain runs), noisy,
// ideal with a stuck-high cell lifting a column over the synthesizer's η,
// and one mixing tabulated and walked columns, so a walked column's lane is
// not its column index — each fed all-zero, all-Γ, clamped and random items
// one per call, then in calls of two and three; the counts are then held to
// the dense oracle.
func TestFloatScratchStaysZero(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			rng := rand.New(rand.NewSource(5501))
			for _, ioBits := range []int{4, 6, 7} {
				for _, kind := range []string{"saturating", "noisy", "stuck-high", "mixed"} {
					xb := floatWalkCrossbar(t, rng, ioBits, kind)
					label := fmt.Sprintf("%s Γ %d", kind, xb.Window())
					if xb.laneEligible() || len(xb.walkCols) == 0 {
						t.Fatalf("%s: want a float walk (lane-eligible %v, %d walked)", label, xb.laneEligible(), len(xb.walkCols))
					}
					rows, cols, window := xb.Rows(), xb.Cols(), xb.Window()
					const batch = 12
					src := structuredCounts(rng, batch, rows, window)
					for i := range rows {
						src[i], src[rows+i], src[2*rows+i] = 0, window, -1+(window+2)*(i%2)
					}
					dst := make([]int, batch*cols)
					for _, per := range []int{1, 2, 3} {
						for b := 0; b < batch; b += per {
							n := min(per, batch-b)
							if err := xb.SimulateCountsBatch(dst[b*cols:(b+n)*cols], src[b*rows:(b+n)*rows], n); err != nil {
								t.Fatal(err)
							}
							for k, v := range xb.floatDrv[:cap(xb.floatDrv)] {
								if v != 0 {
									t.Fatalf("%s: after items %d–%d floatDrv[%d] = %g, want 0", label, b, b+n-1, k, v)
								}
							}
							for k, w := range xb.floatLive[:cap(xb.floatLive)] {
								if w != 0 {
									t.Fatalf("%s: after items %d–%d floatLive[%d] = %#x, want 0", label, b, b+n-1, k, w)
								}
							}
						}
					}
					assertPackedMatchesDense(t, label, xb, src, batch)
				}
			}
		})
	}
}

// floatWalkCrossbar programs one of TestFloatScratchStaysZero's crossbars at
// Γ = 2^ioBits.
func floatWalkCrossbar(t *testing.T, rng *rand.Rand, ioBits int, kind string) *Crossbar {
	t.Helper()
	cfg := structuredConfig(ioBits, kind == "noisy")
	maxW := cfg.Rep.MaxWeight()
	weights := randomWeights(rng, 18, 8, maxW)
	var prng *rand.Rand
	switch kind {
	case "saturating":
		cfg.Eta = synthEta(weights) / 4
	case "noisy":
		cfg.Eta = synthEta(weights)
		prng = rand.New(rand.NewSource(rng.Int63()))
	case "stuck-high":
		for i := range weights {
			weights[i][0] = maxW - 1
		}
		cfg.Eta = synthEta(weights)
		fm := device.FaultMap{Rows: 18, Cols: 8, Cells: []device.FaultCell{{Row: 3, Col: 0, Kind: device.FaultStuckHigh}}}
		if err := fm.Validate(); err != nil {
			t.Fatal(err)
		}
		mask := fm.MaskFor(18, 8, false)
		cfg.Faults = &mask
	case "mixed":
		weights = mixedWeights(rng, maxW)
		cfg.Eta = float64(2*maxW) / 3
	}
	xb, err := Program(cfg, weights, prng)
	if err != nil {
		t.Fatal(err)
	}
	if kind == "mixed" && xb.walkCols[0] == 0 {
		t.Fatalf("Γ %d mixed: walked columns %v, want the first one past lane 0", xb.Window(), xb.walkCols)
	}
	return xb
}
