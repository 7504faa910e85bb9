package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// avgPoolWeights builds the synthesizer's average-pool structure: column c
// reads rows [c·k2, (c+1)·k2) with weight cellW each.
func avgPoolWeights(k2, width, cellW int) [][]int {
	w := make([][]int, k2*width)
	for i := range w {
		w[i] = make([]int, width)
	}
	for c := 0; c < width; c++ {
		for i := 0; i < k2; i++ {
			w[c*k2+i][c] = cellW
		}
	}
	return w
}

// mixedWeights is a 12×7 crossbar with every kind of column at once:
// column 0 all-zero, 1 one row, 2 two rows of opposite sign, 3 three rows,
// 4–6 dense.
func mixedWeights(rng *rand.Rand, maxW int) [][]int {
	w := randomWeights(rng, 12, 7, maxW)
	for i := range w {
		for j := 0; j < 4; j++ {
			w[i][j] = 0
		}
		for j := 4; j < 7; j++ {
			if w[i][j] == 0 {
				w[i][j] = 1
			}
		}
	}
	w[3][1] = maxW
	w[0][2], w[11][2] = -maxW, maxW-1
	w[2][3], w[5][3], w[9][3] = maxW, -3, 2
	return w
}

// structuredShape is one programmed structure the packed kernel treats
// specially, with the η the synthesizer gives it.
type structuredShape struct {
	name    string
	weights [][]int
	eta     float64
}

func structuredShapes(maxW int) []structuredShape {
	rng := rand.New(rand.NewSource(91))
	cellW := maxW / 4
	return []structuredShape{
		{"pmax-diff", pairwiseWeights(8, -maxW, maxW), float64(maxW)},
		{"pmax-comb/residual-add", pairwiseWeights(8, maxW, maxW), float64(maxW)},
		{"avgpool-k2=4", avgPoolWeights(4, 6, cellW), float64(4 * cellW)},
		{"mixed", mixedWeights(rng, maxW), float64(2 * maxW)},
		{"two-rows-dense", [][]int{{maxW, -3, 1, -maxW, 5}, {-2, maxW, 4, maxW, -5}}, float64(maxW)},
	}
}

// structuredConfig is testConfig at a chosen Γ = 2^ioBits, optionally with
// noisy cells.
func structuredConfig(ioBits int, noisy bool) Config {
	cfg := testConfig(0)
	cfg.Params.IOBits = ioBits
	if noisy {
		cfg.Spec = device.Cell4BitMeasured
	}
	return cfg
}

// assertPackedMatchesDense runs one batch through the dense oracle and
// through the kernel twice (the second pass reads the tables the first
// filled) and requires item-by-item equality.
func assertPackedMatchesDense(t *testing.T, label string, xb *Crossbar, src []int, batch int) {
	t.Helper()
	dense := make([]int, batch*xb.Cols())
	if err := xb.SimulateCountsBatchDense(dense, src, batch); err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		name string
		run  func(dst, src []int, batch int) error
	}{
		{"kernel cold", xb.SimulateCountsBatch},
		{"kernel warm", xb.SimulateCountsBatch},
	}
	for _, k := range kernels {
		got := make([]int, len(dense))
		for i := range got {
			got[i] = -1 // every column must be written
		}
		if err := k.run(got, src, batch); err != nil {
			t.Fatal(err)
		}
		for i := range dense {
			if got[i] != dense[i] {
				t.Fatalf("%s %s: item %d col %d: got %d, dense %d (counts %v)", label, k.name,
					i/xb.Cols(), i%xb.Cols(), got[i], dense[i], src[i/xb.Cols()*xb.Rows():][:xb.Rows()])
			}
		}
	}
}

// structuredCounts draws a batch that covers the table keys that matter:
// silent rows, saturated rows, counts above Γ (clamped), and the rest
// uniform.
func structuredCounts(rng *rand.Rand, batch, rows, window int) []int {
	src := make([]int, batch*rows)
	for k := range src {
		switch rng.Intn(6) {
		case 0:
		case 1:
			src[k] = window + rng.Intn(4)
		default:
			src[k] = rng.Intn(window + 1)
		}
	}
	return src
}

// TestStructuredPackedMatchesDense is the bit-exactness property over the
// structures the packed kernel tabulates or walks differently: pairwise-max
// diff/comb (= residual add), average pooling with support 4, a crossbar
// mixing all-zero, tabulated and walked columns, and a two-row crossbar
// whose columns stay tabulated under noisy programming — at Γ = 16, 64 and
// 128 (two lanes, where two-row supports no longer fit a table), ideal and
// noisy, with and without an active fault mask (stuck cells change a
// column's support; drift makes ideal conductances fractional), at the
// shape's own η, a tiny η, η ≤ 0 and the never-saturating synthEta — under
// which the ideal unfaulted crossbars step their walked columns in integer
// lanes (avgpool, pmax-diff at Γ = 128, and mixed beside its tabulated
// columns). It runs under each body the CPU has, of both walks.
func TestStructuredPackedMatchesDense(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testStructuredPackedMatchesDense(t)
		})
	}
}

func testStructuredPackedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, ioBits := range []int{4, 6, 7} {
		for _, noisy := range []bool{false, true} {
			for _, faulted := range []bool{false, true} {
				cfg := structuredConfig(ioBits, noisy)
				maxW := cfg.Rep.MaxWeight()
				for _, sh := range structuredShapes(maxW) {
					rows, cols := len(sh.weights), len(sh.weights[0])
					c := cfg
					c.Eta = sh.eta
					if faulted {
						fm := device.FaultMap{Rows: rows, Cols: cols, Drift: 0.1, Cells: []device.FaultCell{
							{Row: 0, Col: 0, Kind: device.FaultStuckLow},
							{Row: 1, Col: cols - 1, Kind: device.FaultStuckHigh},
							{Row: rows - 1, Col: 0, Kind: device.FaultStuckHigh},
						}}
						sort.Slice(fm.Cells, func(a, b int) bool { // canonical row-major order
							ca, cb := fm.Cells[a], fm.Cells[b]
							return ca.Row*cols+ca.Col < cb.Row*cols+cb.Col
						})
						if err := fm.Validate(); err != nil {
							t.Fatal(err)
						}
						mask := fm.MaskFor(rows, cols, false)
						c.Faults = &mask
					}
					var prng *rand.Rand
					if noisy {
						prng = rand.New(rand.NewSource(rng.Int63()))
					}
					xb, err := Program(c, sh.weights, prng)
					if err != nil {
						t.Fatal(err)
					}
					etas := []float64{sh.eta, 0.5, 0, -1}
					if se := synthEta(sh.weights); se != sh.eta {
						etas = append(etas, se)
					}
					for _, eta := range etas {
						xb.SetEta(eta)
						label := fmt.Sprintf("Γ=%d noisy=%v faulted=%v %s η=%g", xb.Window(), noisy, faulted, sh.name, eta)
						const batch = 12
						assertPackedMatchesDense(t, label, xb, structuredCounts(rng, batch, rows, xb.Window()), batch)
					}
				}
			}
		}
	}
}

// TestLaneWalkMatchesDense drives the integer-lane walk where the other
// suites do not reach, under each lane body the CPU has: dense ideal
// crossbars at the synthesizer's η, at Γ = 16, 64 and 128 (two-word present
// set and trains), with column counts that leave the last lane word full,
// partial and single, and that fill, just miss and just overrun a 16-column
// block, up to eight blocks. Column 0 is all negative, so with every row at
// Γ its debt climbs to Γ and the output is 0; the heaviest column is then
// driven by exactly η on every cycle. Counts above Γ are clamped, and the
// all-zero item must leave every output 0.
func TestLaneWalkMatchesDense(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testLaneWalkMatchesDense(t)
		})
	}
}

func testLaneWalkMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const rows = 18
	for _, ioBits := range []int{4, 6, 7} {
		for _, cols := range []int{1, 4, 5, 9, 15, 16, 17, 30, 33, 48, 64, 128} {
			cfg := structuredConfig(ioBits, false)
			maxW := cfg.Rep.MaxWeight()
			weights := randomWeights(rng, rows, cols, maxW)
			for i := range weights {
				weights[i][0] = -1 - rng.Intn(maxW)
			}
			cfg.Eta = synthEta(weights)
			xb, err := Program(cfg, weights, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(xb.walkCols) != cols || !xb.laneEligible() {
				t.Fatalf("Γ=%d cols=%d: walked %v eligible %v, want every column in lanes", xb.Window(), cols, xb.walkCols, xb.laneEligible())
			}
			window := xb.Window()
			const batch = 24
			src := structuredCounts(rng, batch, rows, window)
			for i := 0; i < rows; i++ {
				src[0*rows+i] = window     // every neuron driven at its column's full sum
				src[1*rows+i] = window + 3 // the same after clamping
				src[2*rows+i] = 0
				src[3*rows+i] = window / 2 // the last count still added, not subtracted
				src[4*rows+i] = window/2 + 1
			}
			label := fmt.Sprintf("Γ=%d cols=%d", window, cols)
			assertPackedMatchesDense(t, label, xb, src, batch)
			dst := make([]int, batch*cols)
			if err := xb.SimulateCountsBatch(dst, src, batch); err != nil {
				t.Fatal(err)
			}
			if dst[0] != 0 || dst[cols] != 0 {
				t.Errorf("%s: negative column fired %d / %d times at full input", label, dst[0], dst[cols])
			}
			for j := 0; j < cols; j++ {
				if dst[2*cols+j] != 0 {
					t.Errorf("%s: column %d fired %d times on all-zero input", label, j, dst[2*cols+j])
				}
			}
		}
	}
}

// TestClassifyProgrammingSupport pins which columns are tabulated: support
// ≤ 2 rows at Γ ≤ 64 (65² keys fit maxTabulated), ≤ 1 row at Γ = 128,
// and every column with noisy cells, whose zero weights read nonzero.
func TestClassifyProgrammingSupport(t *testing.T) {
	cols := func(xb *Crossbar) (tab []int) {
		for _, tc := range xb.tabCols {
			tab = append(tab, tc.col)
		}
		return tab
	}
	for _, tc := range []struct {
		ioBits    int
		shape     string
		tab, walk []int
	}{
		{4, "pmax-diff", []int{0, 1, 2, 3, 4, 5, 6, 7}, nil},
		{6, "pmax-diff", []int{0, 1, 2, 3, 4, 5, 6, 7}, nil},
		{7, "pmax-diff", nil, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{6, "avgpool-k2=4", nil, []int{0, 1, 2, 3, 4, 5}},
		{6, "mixed", []int{0, 1, 2}, []int{3, 4, 5, 6}},
		{7, "mixed", []int{0, 1}, []int{2, 3, 4, 5, 6}},
		{6, "two-rows-dense", []int{0, 1, 2, 3, 4}, nil},
	} {
		cfg := structuredConfig(tc.ioBits, false)
		for _, sh := range structuredShapes(cfg.Rep.MaxWeight()) {
			if sh.name != tc.shape {
				continue
			}
			xb, err := Program(cfg, sh.weights, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := cols(xb); fmt.Sprint(got) != fmt.Sprint(tc.tab) || fmt.Sprint(xb.walkCols) != fmt.Sprint(tc.walk) {
				t.Errorf("Γ=%d %s: tabulated %v walked %v, want %v and %v", xb.Window(), tc.shape, got, xb.walkCols, tc.tab, tc.walk)
			}
		}
	}
	noisy := structuredConfig(6, true)
	xb, err := Program(noisy, pairwiseWeights(8, -noisy.Rep.MaxWeight(), noisy.Rep.MaxWeight()), rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	if len(xb.tabCols) != 0 {
		t.Errorf("noisy pairwise crossbar tabulates %d columns; its zero-weight cells should give every column full support", len(xb.tabCols))
	}
}

// assertMatchesTrains requires SimulateCountsBatch to equal the dense kernel
// and the train-level path chipsim's PE takes, item by item.
func assertMatchesTrains(t *testing.T, label string, xb *Crossbar, src []int, batch int) {
	t.Helper()
	assertPackedMatchesDense(t, label, xb, src, batch)
	rows, cols, window := xb.Rows(), xb.Cols(), xb.Window()
	got := make([]int, batch*cols)
	if err := xb.SimulateCountsBatch(got, src, batch); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batch; b++ {
		ins := make([]spike.Train, rows)
		for i := range ins {
			ins[i] = spike.UniformTrain(src[b*rows+i], window)
		}
		outs, err := xb.SimulateTrains(ins, func(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} })
		if err != nil {
			t.Fatal(err)
		}
		for j, tr := range outs {
			if got[b*cols+j] != tr.Count() {
				t.Fatalf("%s item %d col %d: counts %d, trains %d", label, b, j, got[b*cols+j], tr.Count())
			}
		}
	}
}

// TestSetEtaInvalidatesTables: nothing derived under one η may answer under
// another. Program → fill → SetEta → run must equal the dense kernel (which
// reads η live) and the train-level path, for SetEta before the first run
// and between runs — for the tabulated columns' tables, and for the choice
// between the integer-lane walk and the float walk, which is re-made from
// the current η on every call. The float-walk steps include the edge
// thresholds: NaN (never fires), +Inf (never fires), 0, −0.0 and −1 (fire
// every cycle, so every gap cycle is stepped). It runs under each body the
// CPU has, of both walks.
func TestSetEtaInvalidatesTables(t *testing.T) {
	for _, body := range laneBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useLaneBody(body.avx2)()
			testSetEtaInvalidatesTables(t)
		})
	}
}

func testSetEtaInvalidatesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	xb, err := Program(cfg, pairwiseWeights(8, -maxW, maxW), nil)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	src := structuredCounts(rng, batch, xb.Rows(), xb.Window())
	for _, eta := range []float64{float64(maxW) / 2, float64(3 * maxW), float64(maxW)} {
		xb.SetEta(eta)
		assertMatchesTrains(t, fmt.Sprintf("η=%g", eta), xb, src, batch)
	}

	// A dense crossbar: every column walked, in lanes exactly while η is an
	// integer no column drive can exceed.
	// Column 0 sets η: every cell one level short of +maxW.
	weights := randomWeights(rng, 18, 8, maxW)
	for i := range weights {
		weights[i][0] = maxW - 1
	}
	se := synthEta(weights)
	xb, err = Program(cfg, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	src = structuredCounts(rng, batch, xb.Rows(), xb.Window())
	for _, step := range []struct {
		eta   float64
		lanes bool
	}{
		{se, true}, {se / 4, false}, {se + 0.5, false}, {0, false}, {-1, false},
		{se, true}, {se + 1, true}, {se - 1, false}, {math.NaN(), false}, {se, true},
		{math.Inf(1), false}, {math.Copysign(0, -1), false}, {se, true},
	} {
		xb.SetEta(step.eta)
		if got := xb.laneEligible(); got != step.lanes {
			t.Fatalf("η=%g (synth η %g): lane walk eligible = %v, want %v", step.eta, se, got, step.lanes)
		}
		assertMatchesTrains(t, fmt.Sprintf("dense η=%g", step.eta), xb, src, batch)
	}
	// Each float-walk body builds its own rows, and only those.
	floatRows, otherRows := xb.rowG != nil, xb.floatG != nil
	if laneAVX2 {
		floatRows, otherRows = otherRows, floatRows
	}
	if xb.laneG == nil || !floatRows || otherRows {
		t.Fatalf("after both kinds of η: lanes packed %v, float rows built %v (the other body's %v), want both and not the other's", xb.laneG != nil, floatRows, otherRows)
	}

	// η = 2^14 − 1 is the last threshold the 16-bit lanes hold.
	for _, top := range []int{maxLaneEta - 1, maxLaneEta} {
		var col [][]int
		for left := top; left > 0; left -= maxW {
			col = append(col, []int{min(left, maxW), -1})
		}
		c := cfg
		c.Eta = float64(top)
		xb, err := Program(c, col, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := xb.laneEligible(), top < maxLaneEta; got != want {
			t.Fatalf("η=%d: lane walk eligible = %v, want %v", top, got, want)
		}
		src := structuredCounts(rng, 4, xb.Rows(), xb.Window())
		for i := 0; i < xb.Rows(); i++ {
			src[i] = xb.Window() // membrane and drive both at their largest
		}
		assertMatchesTrains(t, fmt.Sprintf("η=%d", top), xb, src, 4)
	}

	// One stuck-high cell that lifts a column's drive above η sends the
	// whole crossbar to the float walk; a stuck-low cell does not.
	for _, tc := range []struct {
		kind  device.FaultKind
		lanes bool
	}{{device.FaultStuckLow, true}, {device.FaultStuckHigh, false}} {
		fm := device.FaultMap{Rows: 18, Cols: 8, Cells: []device.FaultCell{{Row: 3, Col: 0, Kind: tc.kind}}}
		if err := fm.Validate(); err != nil {
			t.Fatal(err)
		}
		mask := fm.MaskFor(18, 8, false)
		c := cfg
		c.Eta, c.Faults = se, &mask
		xb, err := Program(c, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := xb.laneEligible(); got != tc.lanes {
			t.Fatalf("stuck kind %v in the heaviest column: lane walk eligible = %v, want %v", tc.kind, got, tc.lanes)
		}
		assertMatchesTrains(t, fmt.Sprintf("stuck kind %v", tc.kind), xb, src, batch)
	}
}
