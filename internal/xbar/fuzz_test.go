package xbar

import (
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/hostcpu"
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
// the synthesizer's η, whose walked columns take the integer-lane walk. The
// noisy list also holds offline_mlp_noisy_sparse's own shape: a noisy 16×24
// crossbar at the synthesizer's η with 1 % of its cells stuck, where noisy
// drives can exceed η and the hot drain runs (its corpus has low-count
// seeds near the workload's density of 0.03). The ideal list ends with
// the table-sharing crossbar (signatureWeights), whose columns share
// tables by support signature beside a near-twin one conductance apart.
// Every crossbar runs under each body the CPU has, of both walks.
func FuzzSimulateCountsPackedVsDense(f *testing.F) {
	rng := rand.New(rand.NewSource(76))
	lrng := rand.New(rand.NewSource(77)) // its own stream: the older crossbars keep their weights
	ideal, _ := newFuzzCrossbar(rng, false)
	noisy, _ := newFuzzCrossbar(rng, true)
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	programmed := func(weights [][]int, eta float64, prng *rand.Rand, faults *device.FaultMask) *Crossbar {
		c := cfg
		c.Eta, c.Faults = eta, faults
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
		xb := programmed(weights, synthEta(weights), nil, nil)
		if len(xb.walkCols) == 0 || !xb.laneEligible() {
			f.Fatalf("synth-η crossbar walks %v, lane eligible %v", xb.walkCols, xb.laneEligible())
		}
		return xb
	}
	// The workload-shaped crossbar's own stream, whose stuck-high cells lift
	// a column's noisy sum to 1.14 η.
	wrng := rand.New(rand.NewSource(83))
	mlp := randomWeights(wrng, 16, 24, maxW)
	fm := device.FaultMap{Rows: 16, Cols: 24}
	for k := 0; k < 16*24; k++ { // row-major: the canonical order
		if wrng.Intn(100) == 0 {
			kind := []device.FaultKind{device.FaultStuckLow, device.FaultStuckHigh}[wrng.Intn(2)]
			fm.Cells = append(fm.Cells, device.FaultCell{Row: k / 24, Col: k % 24, Kind: kind})
		}
	}
	if err := fm.Validate(); err != nil {
		f.Fatal(err)
	}
	mask := fm.MaskFor(16, 24, false)
	shared := programmed(signatureWeights(maxW), float64(maxW), nil, nil)
	if shared.nTabs != 3 {
		f.Fatalf("signature crossbar: %d tables, want 3", shared.nTabs)
	}
	xbars := map[bool][]*Crossbar{
		false: {ideal, programmed(pairwiseWeights(8, -maxW, maxW), float64(maxW), nil, nil), programmed(mixedWeights(rng, maxW), float64(maxW), nil, nil),
			lanes(randomWeights(lrng, 18, 8, maxW)), lanes(mixedWeights(lrng, maxW)), shared},
		true: {noisy, programmed([][]int{{maxW, -3, 1}, {-2, maxW, -maxW}}, float64(maxW), rand.New(rand.NewSource(98)), nil),
			programmed(mlp, synthEta(mlp), rand.New(rand.NewSource(80)), &mask)},
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
			for _, body := range laneBodies() {
				restore := useLaneBody(body.avx2)
				err := xb.SimulateCountsBatch(packed, src, batch)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				for k := range dense {
					if dense[k] != packed[k] {
						t.Fatalf("noisy=%v crossbar %d %s out[%d]: dense %d packed %d", useNoisy, xi, body.name, k, dense[k], packed[k])
					}
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

// FuzzReferenceBatchVsNaive fuzzes the packed reference kernel against
// referenceNaive, the per-item integer semantics written out with plain
// int sums, run on the clamped input: shapes up to the full 256 rows
// (either side of every row panel and register block), weights anywhere in
// ±maxW, stuck-low and stuck-high cells folded into the naive side's
// weights by hand, ideal or noisy programming (noise may not reach the
// ideal weights), Γ = 16, 64 or 128, any η set with SetEta (0 keeps
// the programmed maxW), and counts below 0 and above Γ. Seed corpus under
// testdata/fuzz/FuzzReferenceBatchVsNaive; CI runs a short -fuzztime smoke
// pass.
func FuzzReferenceBatchVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(7), uint8(0), uint8(0), false, []byte{}, 0.0, []byte{0, 64, 255, 254})
	f.Add(int64(2), uint8(255), uint8(99), uint8(7), uint8(1), true, []byte{0, 1, 2}, 37.3, []byte{3, 200, 9})
	f.Add(int64(3), uint8(32), uint8(8), uint8(63), uint8(2), false, []byte{2, 0, 0, 1}, 2.5, []byte{128, 0, 70})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, batch8, io8 uint8, noisy bool, faultBytes []byte, eta float64, countBytes []byte) {
		rows, cols, batch := int(rows8)+1, int(cols8)%40+1, int(batch8)%64+1
		cfg := structuredConfig([]int{4, 6, 7}[io8%3], noisy)
		maxW := cfg.Rep.MaxWeight()
		weights := randomWeights(rand.New(rand.NewSource(seed)), rows, cols, maxW)
		masked := make([][]int, rows)
		fm := device.FaultMap{Rows: rows, Cols: cols}
		for i := range masked {
			masked[i] = append([]int(nil), weights[i]...)
			for j := 0; j < cols && len(faultBytes) > 0; j++ {
				switch faultBytes[(i*cols+j)%len(faultBytes)] % 5 {
				case 1:
					fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: j, Kind: device.FaultStuckLow})
					masked[i][j] = 0
				case 2:
					fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: j, Kind: device.FaultStuckHigh})
					masked[i][j] = maxW
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
		if eta != 0 {
			xb.SetEta(eta)
		}
		window := xb.Window()
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) == 0 {
				break
			}
			switch b := countBytes[k%len(countBytes)]; b {
			case 255:
				src[k] = 1 << 40
			case 254:
				src[k] = -1 << 40
			default:
				src[k] = int(b)%(window+9) - 4 // up to 4 either side of [0, Γ]
			}
		}
		clamped := clampedCopy(src, window)
		for _, body := range laneBodies() {
			restore := useLaneBody(body.avx2)
			dst := make([]int, batch*cols)
			err := xb.ReferenceBatch(dst, src, batch)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < batch; b++ {
				want := referenceNaive(masked, clamped[b*rows:(b+1)*rows], xb.Eta(), window)
				for j, w := range want {
					if got := dst[b*cols+j]; got != w {
						t.Fatalf("%s %dx%d batch %d Γ %d η %g: out[%d,%d] = %d, naive %d", body.name, rows, cols, batch, window, xb.Eta(), b, j, got, w)
					}
				}
			}
		}
	})
}

// FuzzReferenceBodiesAgree holds the AVX2 reference kernel to the portable
// one, packed sum for packed sum, through referenceSums — what
// ReferenceBatch dispatches to: a random crossbar of 1–256 rows (either
// side of every row panel) and 1–256 columns, up to LogicalColumns (either
// side of every quad, of the 8-wide register block and of the 32-column
// pass), weights anywhere in ±maxW with stuck-low and stuck-high cells, fed
// a batch of 1–64 items whose counts come from the input bytes — up to 4
// either side of [0, Γ], and 253, 254 and 255 meaning Γ, −2^40 and 2^40 —
// must leave identical sums under both bodies. io8 picks the crossbar's Γ
// and cells: Γ = 16, 64 or 128 with the default 8 cells (the pair kernel);
// Γ = 2^17, where a full-height column's drive comes within 7 % of 2^32,
// and Γ = 2^15 (both the portable body under either setting); Γ = 2^14
// with 68 cells, maxW = 1020 (the pair kernel within 0.4 % of 2^32); and Γ
// = 16 with 2184 and 2185 cells, maxW either side of 2^15 (pair kernel,
// then portable), on at most 64×40 cells since each weight programs its
// cells one by one. Seed corpus under
// testdata/fuzz/FuzzReferenceBodiesAgree, with the edge widths and one
// seed per selection edge; CI runs a short -fuzztime smoke pass.
func FuzzReferenceBodiesAgree(f *testing.F) {
	if !hostcpu.AVX2 {
		f.Skip("the CPU has no AVX2: the portable body is the only one")
	}
	f.Add(int64(1), uint8(15), uint8(23), uint8(7), uint8(1), []byte{}, []byte{0, 64, 255, 254})
	f.Add(int64(2), uint8(255), uint8(35), uint8(63), uint8(3), []byte{0, 1, 2}, []byte{253, 3, 200})
	crossbars := []struct{ ioBits, cells int }{{4, 0}, {6, 0}, {7, 0}, {17, 0}, {14, 68}, {15, 0}, {4, 2184}, {4, 2185}}
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, batch8, io8 uint8, faultBytes, countBytes []byte) {
		rows, cols, batch := int(rows8)+1, int(cols8)+1, int(batch8)%64+1
		xc := crossbars[int(io8)%len(crossbars)]
		cfg := structuredConfig(xc.ioBits, false)
		if xc.cells > 0 {
			cfg.Rep = device.NewAdd(cfg.Spec, xc.cells)
		}
		if xc.cells > 1000 {
			rows, cols = min(rows, 64), min(cols, 40)
		}
		maxW := cfg.Rep.MaxWeight()
		weights := randomWeights(rand.New(rand.NewSource(seed)), rows, cols, maxW)
		fm := device.FaultMap{Rows: rows, Cols: cols}
		for k := 0; k < rows*cols && len(faultBytes) > 0; k++ { // row-major: the canonical order
			switch faultBytes[k%len(faultBytes)] % 5 {
			case 1:
				fm.Cells = append(fm.Cells, device.FaultCell{Row: k / cols, Col: k % cols, Kind: device.FaultStuckLow})
			case 2:
				fm.Cells = append(fm.Cells, device.FaultCell{Row: k / cols, Col: k % cols, Kind: device.FaultStuckHigh})
			}
		}
		if err := fm.Validate(); err != nil {
			t.Fatal(err)
		}
		mask := fm.MaskFor(rows, cols, false)
		cfg.Faults = &mask
		xb, err := Program(cfg, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		window := xb.Window()
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) == 0 {
				break
			}
			switch b := countBytes[k%len(countBytes)]; b {
			case 253:
				src[k] = window
			case 254:
				src[k] = -1 << 40
			case 255:
				src[k] = 1 << 40
			default:
				src[k] = int(b)%(window+9) - 4
			}
		}
		sums := make(map[bool][]int)
		for _, body := range laneBodies() {
			restore := useLaneBody(body.avx2)
			dst := make([]int, batch*cols)
			xb.referenceSums(dst, src, batch)
			restore()
			sums[body.avx2] = dst
		}
		for k, want := range sums[false] {
			if got := sums[true][k]; got != want {
				t.Fatalf("%dx%d batch %d Γ %d: sum[%d,%d] avx2 %#x, portable %#x", rows, cols, batch, window, k/cols, k%cols, got, want)
			}
		}
	})
}
