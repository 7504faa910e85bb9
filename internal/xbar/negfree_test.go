package xbar

import (
	"math/rand"
	"testing"
)

// negativeFreeCrossbar programs a random ideal crossbar whose walked
// columns have no negative weight: every weight in [0, maxW], zeroShare/256
// of them zeroed. The first tabulated columns keep no more nonzero rows
// than a table takes at this Γ, so they are answered from tables beside
// the walked ones, and with negTab the first row of each is negative,
// which the shortcut's test must ignore. η is the synthesizer's (the
// largest per-polarity column sum) plus slack, capped below 2^14.
func negativeFreeCrossbar(t testing.TB, rng *rand.Rand, rows, cols, ioBits, slack, zeroShare, tabulated int, negTab bool) *Crossbar {
	t.Helper()
	cfg := structuredConfig(ioBits, false)
	maxW := cfg.Rep.MaxWeight()
	weights := make([][]int, rows)
	for i := range weights {
		weights[i] = make([]int, cols)
		for j := range weights[i] {
			if rng.Intn(256) >= zeroShare {
				weights[i][j] = rng.Intn(maxW + 1)
			}
		}
	}
	support := maxSupport // the most rows a tabulated column has at this Γ
	if (1<<ioBits+1)*(1<<ioBits+1) > maxTabulated {
		support = 1
	}
	for j := range min(tabulated, cols) {
		for i := range weights {
			weights[i][j] = 0
		}
		for p := range rng.Intn(support + 1) {
			w := 1 + rng.Intn(maxW)
			if negTab && p == 0 {
				w = -w
			}
			weights[rng.Intn(rows)][j] = w
		}
	}
	cfg.Eta = min(synthEta(weights)+float64(slack), maxLaneEta-1)
	xb, err := Program(cfg, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	return xb
}

// checkNegativeFree runs one batch under each body the CPU has and requires
// SimulateCountsBatch ≡ SimulateCountsBatchDense on every column and, when
// the reference shortcut answers, ≡ ReferenceBatch on every walked column.
func checkNegativeFree(t *testing.T, label string, xb *Crossbar, src []int, batch int) {
	t.Helper()
	cols := xb.Cols()
	dense := make([]int, batch*cols)
	if err := xb.SimulateCountsBatchDense(dense, src, batch); err != nil {
		t.Fatal(err)
	}
	reference := make([]int, batch*cols)
	if err := xb.ReferenceBatch(reference, src, batch); err != nil {
		t.Fatal(err)
	}
	for _, body := range laneBodies() {
		restore := useLaneBody(body.avx2)
		got := make([]int, batch*cols)
		err := xb.SimulateCountsBatch(got, src, batch)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != dense[k] {
				t.Fatalf("%s/%s item %d column %d: kernel %d, dense oracle %d", label, body.name, k/cols, k%cols, got[k], dense[k])
			}
		}
		if !xb.NegativeFreeShortcut() {
			continue
		}
		for b := range batch {
			for _, j := range xb.walkCols {
				if k := b*cols + j; got[k] != reference[k] {
					t.Fatalf("%s/%s item %d walked column %d: kernel %d, ReferenceBatch %d", label, body.name, b, j, got[k], reference[k])
				}
			}
		}
	}
}

// FuzzNegativeFreeLanesMatchReference holds the reference shortcut for
// negative-free lane crossbars to the dense oracle and to ReferenceBatch:
// random crossbars of 1–256 rows and 1–64 columns at Γ = 16, 64 or 128
// whose walked columns have no negative weight, some with tabulated
// columns beside them (with or without a negative weight of their own), η
// the synthesizer's plus any slack the lanes hold, and a batch of counts
// from the input bytes, some above Γ. Every such crossbar with a walked
// column must be classified negative-free. It runs under each body the CPU
// has; CI runs a short -fuzztime smoke pass.
func FuzzNegativeFreeLanesMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(199), uint8(7), uint8(1), uint16(0), uint8(0), uint8(0), false, []byte{0, 64, 65, 200, 32, 33, 1})
	f.Add(int64(2), uint8(24), uint8(11), uint8(0), uint16(5), uint8(96), uint8(3), true, []byte{16, 15, 3, 0})
	f.Add(int64(3), uint8(40), uint8(63), uint8(2), uint16(1), uint8(200), uint8(9), false, []byte{128, 127, 3, 90})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8 uint8, slack uint16, zeros, tab8 uint8, negTab bool, countBytes []byte) {
		rows, cols := int(rows8)+1, int(cols8)%64+1
		rng := rand.New(rand.NewSource(seed))
		xb := negativeFreeCrossbar(t, rng, rows, cols, []int{4, 6, 7}[io8%3], int(slack), int(zeros), int(tab8)%(cols+1), negTab)
		if got, want := xb.negFree, len(xb.walkCols) > 0; got != want {
			t.Fatalf("%d×%d with %d walked columns: classified negative-free %v, want %v", rows, cols, len(xb.walkCols), got, want)
		}
		batch := min(len(countBytes)/rows+1, 4)
		src := make([]int, batch*rows)
		for k := range src {
			if len(countBytes) > 0 {
				src[k] = int(countBytes[k%len(countBytes)]) % (xb.Window() + 3)
			}
		}
		checkNegativeFree(t, "fuzz", xb, src, batch)
	})
}

// TestNegativeFreeShortcutNeedsIdealCells: the shortcut is taken on a
// 200×8 global-average pool, the synthesizer's negative-free shape, and on
// a random negative-free crossbar with tabulated columns beside its walked
// ones; and it is not taken once one walked cell's conductance is shifted
// by an integer so that it no longer equals its ideal magnitude in packW —
// still integral, non-negative and under η, so the crossbar stays on the
// integer lanes, where the answer must still be the dense oracle's and no
// longer the reference kernel's.
func TestNegativeFreeShortcutNeedsIdealCells(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := testConfig(0)
	maxW := cfg.Rep.MaxWeight()
	gap := avgPoolWeights(25, 8, maxW/25)
	shift := synthEta(gap)
	cfg.Eta = 2 * shift // room for the shift below, so the lanes still hold
	xb, err := Program(cfg, gap, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed := negativeFreeCrossbar(t, rng, 30, 12, 6, 0, 32, 4, true)
	if len(mixed.tabCols) == 0 || len(mixed.walkCols) == 0 {
		t.Fatalf("mixed crossbar: %d tabulated and %d walked columns, want both", len(mixed.tabCols), len(mixed.walkCols))
	}
	const batch = 16
	for name, c := range map[string]*Crossbar{"gap200x8": xb, "mixed": mixed} {
		if !c.NegativeFreeShortcut() {
			t.Fatalf("%s: shortcut not taken (negative-free %v, lane-eligible %v)", name, c.negFree, c.laneEligible())
		}
		checkNegativeFree(t, name, c, structuredCounts(rng, batch, c.Rows(), c.Window()), batch)
	}

	const row, col = 3, 0 // a walked cell: the first GAP column's fourth row
	xb.ShiftConductance(row, col, shift)
	if !xb.laneEligible() || xb.NegativeFreeShortcut() {
		t.Fatalf("shifted cell: lane-eligible %v, shortcut %v; want lanes without the shortcut", xb.laneEligible(), xb.NegativeFreeShortcut())
	}
	src := structuredCounts(rng, batch, xb.Rows(), xb.Window())
	for i := range xb.Rows() {
		src[i] = xb.Window() // item 0: every row at Γ
	}
	checkNegativeFree(t, "shifted", xb, src, batch)
	got := make([]int, batch*xb.Cols())
	if err := xb.SimulateCountsBatch(got, src, batch); err != nil {
		t.Fatal(err)
	}
	reference := make([]int, len(got))
	if err := xb.ReferenceBatch(reference, src, batch); err != nil {
		t.Fatal(err)
	}
	if got[col] == reference[col] {
		t.Fatalf("shifted cell: item 0 column %d reads %d on both paths; the test needs them apart", col, got[col])
	}
}
