package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/hostcpu"
	"fpsa/internal/spike"
)

func testConfig(eta float64) Config {
	spec := device.Cell4Bit
	spec.Sigma = 0
	return Config{
		Params: device.Params45nm,
		Spec:   spec,
		Rep:    device.NewAdd(spec, device.Params45nm.CellsPerWeight),
		Eta:    eta,
	}
}

func randomWeights(rng *rand.Rand, rows, cols, maxW int) [][]int {
	w := make([][]int, rows)
	for i := range w {
		w[i] = make([]int, cols)
		for j := range w[i] {
			w[i][j] = rng.Intn(2*maxW+1) - maxW
		}
	}
	return w
}

func randomCounts(rng *rand.Rand, n, window int) []int {
	x := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(window + 1)
	}
	return x
}

// referenceNaive replicates the historical per-item integer reference
// semantics with plain int arithmetic. It converts each quotient with
// saturatingInt at every η, which is int() wherever int() is defined.
func referenceNaive(weights [][]int, x []int, eta float64, window int) []int {
	cols := len(weights[0])
	out := make([]int, cols)
	for j := 0; j < cols; j++ {
		var pos, neg int
		for i := range weights {
			w := weights[i][j]
			if w >= 0 {
				pos += w * x[i]
			} else {
				neg += -w * x[i]
			}
		}
		y := saturatingInt(float64(pos)/eta) - saturatingInt(float64(neg)/eta)
		if y < 0 {
			y = 0
		}
		out[j] = spike.Clamp(y, window)
	}
	return out
}

// TestReferenceBatchMatchesNaive pins the batched reference path to the
// historical integer semantics element by element, under each body of the
// reference kernel.
func TestReferenceBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	for _, tc := range []struct{ batch, rows, cols int }{
		{1, 16, 8}, {5, 40, 12}, {16, 256, 30},
	} {
		weights := randomWeights(rng, tc.rows, tc.cols, maxW)
		xb, err := Program(cfg, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A saturation-safe eta keeps the semantics in the regime the
		// synthesizer targets.
		xb.SetEta(float64(maxW * tc.rows / 4))
		src := make([]int, 0, tc.batch*tc.rows)
		for b := 0; b < tc.batch; b++ {
			src = append(src, randomCounts(rng, tc.rows, xb.Window())...)
		}
		for _, body := range laneBodies() {
			restore := useLaneBody(body.avx2)
			dst := make([]int, tc.batch*tc.cols)
			err := xb.ReferenceBatch(dst, src, tc.batch)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < tc.batch; b++ {
				want := referenceNaive(weights, src[b*tc.rows:(b+1)*tc.rows], xb.Eta(), xb.Window())
				for j := range want {
					if dst[b*tc.cols+j] != want[j] {
						t.Fatalf("%s %+v: out[%d,%d] = %d, want %d", body.name, tc, b, j, dst[b*tc.cols+j], want[j])
					}
				}
			}
		}
	}
}

// TestReferenceDegenerateEta pins ReferenceBatch where int() of a quotient
// is left to the architecture: at η = 0 and 1e-300 a column with positive
// drive divides to +Inf or past 2^63 and one without to NaN or 0, at η NaN
// everything is NaN — set with SetEta or passed as Config.Eta, which
// Program keeps. NaN converts to 0 and an overflow saturates, so a column
// with positive and no negative drive answers Γ and every other column 0,
// and at NaN every column 0, on every GOARCH (amd64's conversion alone
// would give minInt for both).
func TestReferenceDegenerateEta(t *testing.T) {
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	// Columns: positive drive only, both, negative only, none.
	weights := [][]int{{maxW, 3, -1, 0}, {2, -maxW, -maxW, 0}, {1, 0, 0, 0}}
	src := []int{5, 7, 1, 0, 0, 0}
	for _, tc := range []struct {
		name string
		eta  float64
		want []int // the first item's outputs, in units of Γ
	}{
		{"eta=0", 0, []int{1, 0, 0, 0}},
		{"eta=1e-300", 1e-300, []int{1, 0, 0, 0}},
		{"eta=NaN", math.NaN(), []int{0, 0, 0, 0}},
	} {
		for _, viaConfig := range []bool{false, true} {
			if viaConfig && tc.eta == 0 {
				continue // Config.Eta 0 means maxW
			}
			c := cfg
			if viaConfig {
				c.Eta = tc.eta
			}
			xb, err := Program(c, weights, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !viaConfig {
				xb.SetEta(tc.eta)
			}
			window := xb.Window()
			want := make([]int, 0, 2*len(tc.want))
			for _, v := range tc.want {
				want = append(want, v*window)
			}
			want = append(want, 0, 0, 0, 0) // the all-zero item: every quotient NaN or 0
			for _, body := range laneBodies() {
				restore := useLaneBody(body.avx2)
				got := make([]int, 2*len(tc.want))
				err := xb.ReferenceBatch(got, src, 2)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s config=%v %s: got %v, want %v", tc.name, viaConfig, body.name, got, want)
				}
			}
			naive := append(referenceNaive(weights, src[:3], xb.Eta(), window), referenceNaive(weights, src[3:], xb.Eta(), window)...)
			if fmt.Sprint(naive) != fmt.Sprint(want) {
				t.Errorf("%s config=%v: referenceNaive %v, want %v", tc.name, viaConfig, naive, want)
			}
		}
	}
}

// clampedCopy returns src with every count limited to [0, window].
func clampedCopy(src []int, window int) []int {
	out := make([]int, len(src))
	for k, v := range src {
		out[k] = spike.Clamp(v, window)
	}
	return out
}

// TestKernelsClampOutOfRangeCounts: both kernels — and the spiking
// kernel's oracle — answer a batch holding counts below 0 and above Γ
// exactly as they answer its clamped copy, on an ideal crossbar at the
// synthesizer's η (the spiking kernel's integer lanes), at a saturating η
// (its float walk) and on a noisy crossbar.
func TestKernelsClampOutOfRangeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2602))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	const rows, cols, batch = 40, 9, 4
	weights := randomWeights(rng, rows, cols, maxW)
	ideal, err := Program(cfg, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisyCfg := cfg
	noisyCfg.Spec = device.Cell4BitMeasured
	noisy, err := Program(noisyCfg, weights, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	window := ideal.Window()
	wild := []int{-3, -1, -1 << 40, window + 1, window + 5, 1 << 40}
	src := randomCounts(rng, batch*rows, window)
	for k := range src {
		if k%3 == 0 {
			src[k] = wild[rng.Intn(len(wild))]
		}
	}
	clamped := clampedCopy(src, window)
	for _, run := range []struct {
		name string
		xb   *Crossbar
		eta  float64
	}{
		{"ideal synth-η", ideal, synthEta(weights)},
		{"ideal saturating η", ideal, float64(maxW) * 4},
		{"noisy", noisy, float64(maxW) * 4},
	} {
		run.xb.SetEta(run.eta)
		for _, k := range []struct {
			name string
			run  func(dst, src []int, batch int) error
		}{
			{"ReferenceBatch", run.xb.ReferenceBatch},
			{"SimulateCountsBatch", run.xb.SimulateCountsBatch},
			{"SimulateCountsBatchDense", run.xb.SimulateCountsBatchDense},
		} {
			got, want := make([]int, batch*cols), make([]int, batch*cols)
			if err := k.run(got, src, batch); err != nil {
				t.Fatal(err)
			}
			if err := k.run(want, clamped, batch); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: K(src) = %v, K(clamp(src)) = %v", run.name, k.name, got, want)
			}
		}
	}
}

// TestReferenceDriveBound pins the packed kernel's no-carry argument at
// its edge: at Γ = 2^17 a 256-row crossbar's largest drive, 256·Γ·120, is
// just below 2^32, and every count at Γ against columns of ±maxW must
// still split into the exact P and N sums — the low half never carries.
// Γ ≥ 2^15 gives the crossbar no pair rows, so referenceVMM, the portable
// body, runs under either setting of laneAVX2; the AVX2 kernel's own
// full-drive edge is TestReferencePairDriveBound's. One more I/O bit and
// Program refuses the crossbar.
func TestReferenceDriveBound(t *testing.T) {
	cfg := testConfig(0)
	cfg.Params.IOBits = 17
	maxW := cfg.Rep.MaxWeight()
	rows := cfg.Params.CrossbarRows
	weights := make([][]int, rows)
	for i := range weights {
		weights[i] = []int{maxW, -maxW, maxW - 2*(i%2)*maxW, 0, i%(2*maxW+1) - maxW, maxW, -maxW}
	}
	xb, err := Program(cfg, weights, nil)
	if err != nil {
		t.Fatalf("drive %d·2^17·%d < 2^32 refused: %v", rows, maxW, err)
	}
	window := xb.Window()
	src := make([]int, rows)
	for i := range src {
		src[i] = window
	}
	src[3] = window + 9 // clamped to Γ before it multiplies
	for _, body := range laneBodies() {
		restore := useLaneBody(body.avx2)
		dst := make([]int, xb.Cols())
		referenceVMM(dst, xb.packW, src, 1, rows, xb.Cols(), window)
		restore()
		for j := range dst {
			var p, n uint64
			for i := range weights {
				if w := weights[i][j]; w >= 0 {
					p += uint64(w) * uint64(window)
				} else {
					n += uint64(-w) * uint64(window)
				}
			}
			if n >= 1<<32 || p >= 1<<32 {
				t.Fatalf("col %d: P %d / N %d not below 2^32", j, p, n)
			}
			if got := uint64(dst[j]); got>>polarityShift != p || got&lowHalf != n {
				t.Fatalf("%s col %d: packed sum splits into P %d N %d, want %d %d", body.name, j, got>>polarityShift, got&lowHalf, p, n)
			}
		}
	}
	cfg.Params.IOBits = 18
	if _, err := Program(cfg, weights, nil); err == nil {
		t.Fatal("Program accepted a crossbar whose drive reaches 2^32")
	}
	if _, err := Program(cfg, weights[:rows/2], nil); err != nil {
		t.Fatalf("half the rows at Γ = 2^18 stay below 2^32, but Program refused: %v", err)
	}
}

// TestReferencePairDriveBound pins the pair kernel at the largest drive
// its 16-bit operands allow: Γ = 2^14 and 68-cell weights (maxW = 1020),
// so a full-height column sums up to 256·2^14·1020 ≈ 0.996·2^32 and one
// VPMADDWD dword up to 2·Γ·maxW < 2^31. On 1, 31, 32, 33, 255 and 256 rows
// (either side of a row panel, odd ones ending in a zero-padded pair) and
// 4, 7, 24 and 33 columns (whole quads, masked tails), with columns of
// +maxW, of −maxW and of both alternating, a batch at full drive on both
// polarities, at counts of 2^40 and Γ+7, at −2^40 and −1, and mixed must
// leave the exact packed sums and answer as referenceNaive does on the
// clamped copy at η = 1, 2, 3, maxW and 12345, under each body. A Γ = 2^15
// crossbar and a maxW = 32775 one (2185 cells at Γ = 16) have no pair rows
// and must still match.
func TestReferencePairDriveBound(t *testing.T) {
	type edge struct {
		ioBits, cells int
		pairs         bool
	}
	for _, e := range []edge{{14, 68, true}, {15, 8, false}, {4, 2185, false}} {
		cfg := testConfig(0)
		cfg.Params.IOBits = e.ioBits
		cfg.Rep = device.NewAdd(cfg.Spec, e.cells)
		maxW := cfg.Rep.MaxWeight()
		window := cfg.Params.SamplingWindow()
		for _, rows := range []int{1, 31, 32, 33, 255, 256} {
			for _, cols := range []int{4, 7, 24, 33} {
				if e.cells > 1000 && rows*cols > 33*33 {
					continue // each weight programs its 2185 cells one by one
				}
				weights := make([][]int, rows)
				for i := range weights {
					weights[i] = make([]int, cols)
					for j := range weights[i] {
						weights[i][j] = []int{maxW, -maxW, maxW - 2*maxW*(i%2)}[j%3]
					}
				}
				xb, err := Program(cfg, weights, nil)
				if err != nil {
					t.Fatalf("Γ %d maxW %d %dx%d: %v", window, maxW, rows, cols, err)
				}
				if got := xb.pairW != nil; got != (e.pairs && hostcpu.AVX2) {
					t.Fatalf("Γ %d maxW %d: pair rows %v, want %v", window, maxW, got, e.pairs && hostcpu.AVX2)
				}
				items := [][]int{{window}, {1 << 40, window + 7}, {-1 << 40, -1}, {-1 << 40, -1, window + 7, 1 << 40, 3}}
				src := make([]int, 0, len(items)*rows)
				for _, vals := range items {
					for i := range rows {
						src = append(src, vals[i%len(vals)])
					}
				}
				batch := len(items)
				clamped := clampedCopy(src, window)
				for _, body := range laneBodies() {
					restore := useLaneBody(body.avx2)
					sums := make([]int, batch*cols)
					xb.referenceSums(sums, src, batch)
					for b := range batch {
						for j := range cols {
							var p, n uint64
							for i := range rows {
								x := uint64(clamped[b*rows+i])
								if w := weights[i][j]; w >= 0 {
									p += uint64(w) * x
								} else {
									n += uint64(-w) * x
								}
							}
							if got := uint64(sums[b*cols+j]); got != p<<polarityShift|n {
								t.Fatalf("%s Γ %d maxW %d %dx%d: sum[%d,%d] P %d N %d, want %d %d", body.name, window, maxW, rows, cols, b, j, got>>polarityShift, got&lowHalf, p, n)
							}
						}
					}
					for _, eta := range []float64{1, 2, 3, float64(maxW), 12345} {
						xb.SetEta(eta)
						dst := make([]int, batch*cols)
						if err := xb.ReferenceBatch(dst, src, batch); err != nil {
							t.Fatal(err)
						}
						for b := range batch {
							want := referenceNaive(weights, clamped[b*rows:(b+1)*rows], eta, window)
							for j, w := range want {
								if got := dst[b*cols+j]; got != w {
									t.Fatalf("%s Γ %d maxW %d %dx%d η %g: out[%d,%d] = %d, want %d", body.name, window, maxW, rows, cols, eta, b, j, got, w)
								}
							}
						}
					}
					restore()
				}
			}
		}
	}
}

// TestSimulateCountsBatchMatchesTrains cross-checks the batched
// counts-level simulation against the train-level path with ideal
// neurons: identical conductances, identical uniform input trains, so
// the output counts must agree exactly — item by item, for ideal and
// noisy programming alike.
func TestSimulateCountsBatchMatchesTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	for _, noisy := range []bool{false, true} {
		c := cfg
		var prng *rand.Rand
		if noisy {
			c.Spec = device.Cell4BitMeasured
			prng = rand.New(rand.NewSource(17))
		}
		weights := randomWeights(rng, 48, 10, maxW)
		xb, err := Program(c, weights, prng)
		if err != nil {
			t.Fatal(err)
		}
		xb.SetEta(float64(maxW * 12))
		const batch = 6
		src := make([]int, 0, batch*48)
		for b := 0; b < batch; b++ {
			src = append(src, randomCounts(rng, 48, xb.Window())...)
		}
		dst := make([]int, batch*10)
		if err := xb.SimulateCountsBatch(dst, src, batch); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batch; b++ {
			ins := make([]spike.Train, 48)
			for i := range ins {
				ins[i] = spike.UniformTrain(src[b*48+i], xb.Window())
			}
			outs, err := xb.SimulateTrains(ins, func(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} })
			if err != nil {
				t.Fatal(err)
			}
			for j, tr := range outs {
				if dst[b*10+j] != tr.Count() {
					t.Fatalf("noisy=%v item %d col %d: batch %d, trains %d", noisy, b, j, dst[b*10+j], tr.Count())
				}
			}
		}
	}
}

// TestProgramDrawOrder pins the noisy programming draw order (column-
// major, positive before negative) that seeded variation streams across
// the stack depend on.
func TestProgramDrawOrder(t *testing.T) {
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	weights := [][]int{{3, -2}, {-1, 4}}
	xb, err := Program(cfg, weights, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			w := weights[i][j]
			pos, neg := 0, 0
			if w >= 0 {
				pos = w
			} else {
				neg = -w
			}
			gp := device.ProgramWeight(cfg.Rep, cfg.Spec, pos, rng)
			gn := device.ProgramWeight(cfg.Rep, cfg.Spec, neg, rng)
			if xb.posG[i*2+j] != gp || xb.negG[i*2+j] != gn {
				t.Fatalf("cell (%d,%d): got %g/%g, want %g/%g", i, j, xb.posG[i*2+j], xb.negG[i*2+j], gp, gn)
			}
		}
	}
}

func TestProgramValidation(t *testing.T) {
	cfg := testConfig(0)
	if _, err := Program(cfg, nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{}}, nil); err == nil {
		t.Error("zero-column matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{1, 2}, {3}}, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Program(cfg, [][]int{{cfg.Rep.MaxWeight() + 1}}, nil); err == nil {
		t.Error("overflowing weight accepted")
	}
	tall := make([][]int, cfg.Params.CrossbarRows+1)
	for i := range tall {
		tall[i] = []int{1}
	}
	if _, err := Program(cfg, tall, nil); err == nil {
		t.Error("too-tall matrix accepted")
	}
	xb, err := Program(cfg, [][]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.ReferenceBatch(make([]int, 2), make([]int, 3), 2); err == nil {
		t.Error("mis-sized batch input accepted")
	}
	if err := xb.SimulateCountsBatch(make([]int, 3), make([]int, 2), 2); err == nil {
		t.Error("mis-sized batch output accepted")
	}
	if _, err := xb.SimulateTrains(make([]spike.Train, 2), nil); err == nil {
		t.Error("wrong train count accepted")
	}
}

// BenchmarkReferenceBatch times ReferenceBatch through Program on the
// shapes that matter: the two layers of the serve_mlp_reference MLP (16×24
// and 24×4) at batch 8 — rows short enough that per-row overhead dominates
// — and at the workload's own batch of 64, a mid-size panel, and a
// full-height crossbar that spans eight row panels at a serving batch.
// Every shape runs once under each body the CPU has (portable, avx2).
func BenchmarkReferenceBatch(b *testing.B) {
	for _, tc := range []struct{ batch, rows, cols int }{
		{8, 16, 24}, {8, 24, 4}, {64, 16, 24}, {64, 24, 4}, {8, 128, 64}, {64, 256, 100},
	} {
		for _, body := range laneBodies() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", tc.batch, tc.rows, tc.cols, body.name), func(b *testing.B) {
				defer useLaneBody(body.avx2)()
				rng := rand.New(rand.NewSource(3))
				cfg := testConfig(0)
				weights := randomWeights(rng, tc.rows, tc.cols, cfg.Rep.MaxWeight())
				xb, err := Program(cfg, weights, nil)
				if err != nil {
					b.Fatal(err)
				}
				xb.SetEta(synthEta(weights))
				src := randomCounts(rng, tc.batch*tc.rows, xb.Window()) // a few are zero
				dst := make([]int, tc.batch*tc.cols)
				for b.Loop() {
					if err := xb.ReferenceBatch(dst, src, tc.batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.batch), "ns/sample")
			})
		}
	}
}
