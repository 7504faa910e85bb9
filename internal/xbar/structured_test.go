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
// column's support), at the
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
						fm := device.FaultMap{Rows: rows, Cols: cols, Cells: []device.FaultCell{
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
// and every column with noisy cells, whose zero weights read nonzero. It
// also pins how many distinct tables the tabulated columns share:
//   - pmax-diff: every column reads −maxW then +maxW on its own two rows,
//     so all 8 share 1 table;
//   - mixed: its tabulated columns have 0, 1 and 2 support rows (all-zero,
//     one maxW row, −maxW over maxW−1), so none shares: 3 tables at Γ = 64,
//     2 at Γ = 128, where column 2 is walked;
//   - two-rows-dense: every column's conductance pair differs from the
//     others' in value or sign (maxW/−2, −3/maxW, 1/4, −maxW/maxW, 5/−5),
//     so 5 columns take 5 tables.
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
		tables    int
	}{
		{4, "pmax-diff", []int{0, 1, 2, 3, 4, 5, 6, 7}, nil, 1},
		{6, "pmax-diff", []int{0, 1, 2, 3, 4, 5, 6, 7}, nil, 1},
		{7, "pmax-diff", nil, []int{0, 1, 2, 3, 4, 5, 6, 7}, 0},
		{6, "avgpool-k2=4", nil, []int{0, 1, 2, 3, 4, 5}, 0},
		{6, "mixed", []int{0, 1, 2}, []int{3, 4, 5, 6}, 3},
		{7, "mixed", []int{0, 1}, []int{2, 3, 4, 5, 6}, 2},
		{6, "two-rows-dense", []int{0, 1, 2, 3, 4}, nil, 5},
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
			if xb.nTabs != tc.tables {
				t.Errorf("Γ=%d %s: %d distinct tables, want %d", xb.Window(), tc.shape, xb.nTabs, tc.tables)
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

// signatureWeights is a 6×6 crossbar of two-row ±maxW columns for table
// sharing: columns 0, 1, 2 and 5 read +maxW then −maxW on different row
// pairs and share one table; column 3 is column 0 with its second
// conductance one level lower, and column 4 reads −maxW then +maxW, so
// each of those two takes a table of its own.
func signatureWeights(maxW int) [][]int {
	w := make([][]int, 6)
	for i := range w {
		w[i] = make([]int, 6)
	}
	w[0][0], w[1][0] = maxW, -maxW
	w[2][1], w[3][1] = maxW, -maxW
	w[4][2], w[5][2] = maxW, -maxW
	w[0][3], w[1][3] = maxW, -(maxW - 1)
	w[1][4], w[2][4] = -maxW, maxW
	w[3][5], w[5][5] = maxW, -maxW
	return w
}

// TestTabulatedColumnsShareBySignature pins which columns share a table:
// those whose support conductances are bit-identical position by position,
// whatever their support rows, and no others. Rows fire so that every
// column sees the same key, where a wrongly shared table would answer
// column 3 or 4 with column 0's count.
func TestTabulatedColumnsShareBySignature(t *testing.T) {
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	c := cfg
	c.Eta = float64(maxW)
	xb, err := Program(c, signatureWeights(maxW), nil)
	if err != nil {
		t.Fatal(err)
	}
	var tabs []int
	for _, tc := range xb.tabCols {
		tabs = append(tabs, tc.tab)
	}
	if want := []int{0, 0, 0, 1, 2, 0}; fmt.Sprint(tabs) != fmt.Sprint(want) || xb.nTabs != 3 {
		t.Fatalf("table indices %v of %d tables, want %v of 3", tabs, xb.nTabs, want)
	}
	window := xb.Window()
	var src []int
	for _, pair := range [][2]int{{40, 5}, {5, 40}, {window, 1}, {1, window}, {33, 32}} {
		src = append(src, pair[0], pair[1], pair[0], pair[1], pair[0], pair[1])
	}
	assertMatchesTrains(t, "signature", xb, src, len(src)/xb.Rows())
	for i, table := range xb.tables {
		if table == nil {
			t.Errorf("table %d never filled", i)
		}
	}
}

// assertMatchesTrains requires SimulateCountsBatch to equal the dense kernel
// and the paper's PE simulated train by train (SimulateTrains), item by
// item.
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

// atWindow reprograms xb's sampling window to an arbitrary Γ and rederives
// its column split: Program only makes windows that are powers of two, and
// the tabulation bound is reached between them.
func atWindow(xb *Crossbar, window int) {
	xb.window = window
	xb.trainTab, xb.silentTab = nil, nil
	xb.rederive()
}

// TestTableEntriesAtTheKeySpaceBound pins the uint16 table entry at the
// edge of the key-space rule, (Γ+1)^k ≤ maxTabulated: two one-row columns
// at Γ = 8191, the largest window whose Γ+1 keys fit, one of which outputs
// Γ and so stores the largest entry, Γ+1 = maxTabulated; and two two-row
// columns at Γ = 89, the largest whose (Γ+1)^2 keys fit. Each is fed counts
// at and near Γ, and past it (clamped), and must match the dense oracle;
// one window further, no column is tabulated.
func TestTableEntriesAtTheKeySpaceBound(t *testing.T) {
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	cfg.Eta = float64(maxW)
	for _, tc := range []struct {
		ioBits, window, k int
		weights           [][]int
	}{
		{13, maxTabulated - 1, 1, [][]int{{maxW, 0}, {0, -maxW}}},
		{7, 89, 2, [][]int{{maxW, maxW}, {-maxW, maxW}}},
	} {
		c := cfg
		c.Params.IOBits = tc.ioBits
		xb, err := Program(c, tc.weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		atWindow(xb, tc.window)
		if len(xb.tabCols) != 2 || xb.tabCols[0].k != tc.k || xb.tabCols[1].k != tc.k {
			t.Fatalf("Γ %d: tabulated columns %+v, want both with %d support rows", tc.window, xb.tabCols, tc.k)
		}
		g := tc.window
		var src []int
		for _, pair := range [][2]int{{g, g}, {g, 0}, {0, g}, {g - 1, g}, {g, g - 1}, {g - 1, 1}, {g + 5, -3}, {1, g + 1}} {
			src = append(src, pair[0], pair[1])
		}
		assertMatchesTrains(t, fmt.Sprintf("Γ=%d", g), xb, src, len(src)/2)
		top := 0
		for _, table := range xb.tables {
			for _, v := range table {
				top = max(top, int(v))
			}
		}
		if tc.k == 1 && top != maxTabulated {
			t.Errorf("Γ %d: largest table entry %d, want Γ+1 = %d", g, top, maxTabulated)
		}
		atWindow(xb, tc.window+1)
		if len(xb.tabCols) != 0 {
			t.Errorf("Γ %d: %d columns still tabulated past the key-space bound", tc.window+1, len(xb.tabCols))
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
	// All 8 columns answer from one shared table, which SetEta must drop
	// for every one of them.
	if len(xb.tabCols) != 8 || xb.nTabs != 1 {
		t.Fatalf("pairwise crossbar: %d tabulated columns in %d tables, want 8 in 1", len(xb.tabCols), xb.nTabs)
	}
	const batch = 32
	src := structuredCounts(rng, batch, xb.Rows(), xb.Window())
	for _, eta := range []float64{float64(maxW) / 2, float64(3 * maxW), float64(maxW)} {
		xb.SetEta(eta)
		assertMatchesTrains(t, fmt.Sprintf("η=%g", eta), xb, src, batch)
	}
	// The signature crossbar: shared and unshared tables side by side.
	xb, err = Program(cfg, signatureWeights(maxW), nil)
	if err != nil {
		t.Fatal(err)
	}
	src = structuredCounts(rng, batch, xb.Rows(), xb.Window())
	for _, eta := range []float64{float64(maxW), float64(maxW) / 3, float64(maxW)} {
		xb.SetEta(eta)
		assertMatchesTrains(t, fmt.Sprintf("signature η=%g", eta), xb, src, batch)
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
	// Both walks have run, so both kinds of lane rows are built: one float
	// lane row per crossbar row, which either float-walk body reads.
	if half := xb.floatHalf(); xb.laneG == nil || len(xb.floatG) != xb.Rows()*2*half || len(xb.floatDrv) != xb.Window()*2*half {
		t.Fatalf("after both kinds of η: lanes packed %v, %d float lane words and %d drive words, want %d and %d",
			xb.laneG != nil, len(xb.floatG), len(xb.floatDrv), xb.Rows()*2*half, xb.Window()*2*half)
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

// TestTableFillMatchesOracleOnEveryKey feeds every key of every table in
// one batch and holds the kernel to the dense oracle element for element:
// a two-row crossbar whose ideally programmed columns have support 0, 1
// and 2 (the pairwise-max diff and comb columns among them), at Γ = 1, 2,
// 7 and 64, ideally programmed and under one noisy draw (fractional
// conductances; every cell conducts, so every column has support 2), at
// η = maxW, at a non-integer η and at η = 0, which fires every cycle.
// After the cold pass every table must be full: no key went unfed.
func TestTableFillMatchesOracleOnEveryKey(t *testing.T) {
	for _, g := range []struct{ ioBits, window int }{{0, 1}, {1, 2}, {3, 7}, {6, 64}} {
		for _, noisy := range []bool{false, true} {
			cfg := structuredConfig(g.ioBits, noisy)
			maxW := cfg.Rep.MaxWeight()
			weights := [][]int{
				{0, maxW, 0, -maxW, maxW, maxW},
				{0, 0, -maxW, maxW, maxW, -maxW},
			}
			var prng *rand.Rand
			if noisy {
				prng = rand.New(rand.NewSource(95))
			}
			xb, err := Program(cfg, weights, prng)
			if err != nil {
				t.Fatal(err)
			}
			atWindow(xb, g.window)
			if len(xb.tabCols) != len(weights[0]) {
				t.Fatalf("Γ=%d noisy=%v: %d of %d columns tabulated", g.window, noisy, len(xb.tabCols), len(weights[0]))
			}
			if !noisy {
				for j, want := range []int{0, 1, 1, 2, 2, 2} {
					if k := xb.tabCols[j].k; k != want {
						t.Fatalf("Γ=%d: column %d has %d support rows, want %d", g.window, j, k, want)
					}
				}
			}
			src := everyKeyPair(g.window)
			for _, eta := range []float64{float64(maxW), float64(maxW)*0.37 + 0.01, 0} {
				xb.SetEta(eta)
				label := fmt.Sprintf("Γ=%d noisy=%v η=%g", g.window, noisy, eta)
				assertPackedMatchesDense(t, label, xb, src, len(src)/2)
				for i, table := range xb.tables {
					for key, v := range table {
						if v == 0 {
							t.Fatalf("%s: table %d key %d never filled", label, i, key)
						}
					}
				}
			}
		}
	}
}

// everyKeyPair is a two-row batch of every count pair in [0, Γ]², row 0
// most significant: every key of a table over two support rows, in key
// order.
func everyKeyPair(window int) []int {
	var src []int
	for c0 := 0; c0 <= window; c0++ {
		for c1 := 0; c1 <= window; c1++ {
			src = append(src, c0, c1)
		}
	}
	return src
}
