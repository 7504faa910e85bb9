package xbar

import (
	"fmt"
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

// assertPackedMatchesDense runs one batch through the dense kernel, the
// packed kernel twice (the second pass reads the tables the first filled)
// and the auto path, and requires item-by-item equality.
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
		{"packed cold", xb.SimulateCountsBatchPacked},
		{"packed warm", xb.SimulateCountsBatchPacked},
		{"auto", xb.SimulateCountsBatch},
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
// synthesizer's η, a tiny η and η ≤ 0.
func TestStructuredPackedMatchesDense(t *testing.T) {
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
					for _, eta := range []float64{sh.eta, 0.5, 0, -1} {
						if eta != sh.eta {
							xb.SetEta(eta)
						}
						label := fmt.Sprintf("Γ=%d noisy=%v faulted=%v %s η=%g", xb.Window(), noisy, faulted, sh.name, eta)
						const batch = 12
						assertPackedMatchesDense(t, label, xb, structuredCounts(rng, batch, rows, xb.Window()), batch)
					}
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

// TestSetEtaInvalidatesTables: a table filled under one η must not answer
// under another. Program → fill → SetEta → run must equal the dense kernel
// (which reads η live) and the train-level path chipsim's PE takes, for
// SetEta before the first run and between runs.
func TestSetEtaInvalidatesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	xb, err := Program(cfg, pairwiseWeights(8, -maxW, maxW), nil)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	rows, cols, window := xb.Rows(), xb.Cols(), xb.Window()
	src := structuredCounts(rng, batch, rows, window)
	for _, eta := range []float64{float64(maxW) / 2, float64(3 * maxW), float64(maxW)} {
		xb.SetEta(eta)
		assertPackedMatchesDense(t, fmt.Sprintf("η=%g", eta), xb, src, batch)
		got := make([]int, batch*cols)
		if err := xb.SimulateCountsBatch(got, src, batch); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batch; b++ {
			ins := make([]spike.Train, rows)
			for i := range ins {
				ins[i] = spike.UniformTrain(src[b*rows+i], window)
			}
			outs, err := xb.SimulateTrains(ins, func(eta float64) Stepper { return &spike.Neuron{Eta: eta} })
			if err != nil {
				t.Fatal(err)
			}
			for j, tr := range outs {
				if got[b*cols+j] != tr.Count() {
					t.Fatalf("η=%g item %d col %d: counts %d, trains %d", eta, b, j, got[b*cols+j], tr.Count())
				}
			}
		}
	}
}
