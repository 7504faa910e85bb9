package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// redrawCase is one FuzzRedrawVsProgram input: a crossbar of rows×cols
// (1–64 each) at Γ = 16, 64 or 128, programmed with cells cells per weight
// (fewer cells leave more noisy zero-weight cells at exactly 0, so supports
// shrink and grow between draws), redrawn redraws times.
type redrawCase struct {
	seed                            int64
	rows8, cols8, io8, kind, cells8 uint8
	redraws8                        uint8
	countBytes                      []byte
}

// checkRedrawVsProgram programs one crossbar, runs its kernels so that
// every derived structure exists, then redraws it k times. A second rng
// from the same seed programs a fresh crossbar per draw in lockstep, so
// each redraw must equal the fresh Program from the same rng state: every
// conductance bit, the spiking kernel (cold and warm, under each body the
// CPU has) and the reference kernel on the same counts, and then
// everything the kernels derived. kind%4 picks
// the programming: noisy (0 and 1); noisy with stuck cells; ideal with
// stuck cells (the integer lanes, rebuilt).
// kind&4 zeroes about half the weights. It returns the walked-column count
// of every draw, the first program's included.
func checkRedrawVsProgram(t *testing.T, rc redrawCase) []int {
	t.Helper()
	rows, cols := int(rc.rows8)%64+1, int(rc.cols8)%64+1
	noisy := rc.kind%4 != 3
	cfg := structuredConfig([]int{4, 6, 7}[rc.io8%3], noisy)
	cfg.Rep = device.NewAdd(cfg.Spec, int(rc.cells8)%4+1)
	rng := rand.New(rand.NewSource(rc.seed))
	weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
	if rc.kind&4 != 0 {
		for _, row := range weights {
			for j := range row {
				if rng.Intn(2) == 0 {
					row[j] = 0
				}
			}
		}
	}
	cfg.Eta = synthEta(weights)
	fm := device.FaultMap{Rows: rows, Cols: cols}
	if rc.kind%4 >= 2 {
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
	var ra, rb *rand.Rand
	if noisy {
		ra, rb = rand.New(rand.NewSource(rc.seed+1)), rand.New(rand.NewSource(rc.seed+1))
	}
	program := func() *Crossbar {
		xb, err := Program(cfg, weights, rb)
		if err != nil {
			t.Fatal(err)
		}
		return xb
	}
	xb, err := Program(cfg, weights, ra)
	if err != nil {
		t.Fatal(err)
	}
	program() // rb follows ra's draws

	window := xb.Window()
	batch := min(len(rc.countBytes)/rows+1, 4)
	src := make([]int, batch*rows)
	for k := range src {
		if len(rc.countBytes) > 0 {
			src[k] = int(rc.countBytes[k%len(rc.countBytes)])%(window+9) - 4
		}
	}
	outputs := func(c *Crossbar) string {
		var out []string
		for _, body := range laneBodies() {
			restore := useLaneBody(body.avx2)
			for range 2 { // cold, then warm tables
				dst := make([]int, batch*cols)
				err := c.SimulateCountsBatch(dst, src, batch)
				if err != nil {
					restore()
					t.Fatal(err)
				}
				out = append(out, fmt.Sprint(body.name, dst))
			}
			restore()
		}
		ref := make([]int, batch*cols)
		if err := c.ReferenceBatch(ref, src, batch); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out, ref)
	}
	outputs(xb)
	walked := []int{len(xb.walkCols)}
	for r := range int(rc.redraws8)%4 + 1 {
		xb.Redraw(ra)
		fresh := program()
		for k := range fresh.posG {
			if math.Float64bits(xb.posG[k]) != math.Float64bits(fresh.posG[k]) ||
				math.Float64bits(xb.negG[k]) != math.Float64bits(fresh.negG[k]) {
				t.Fatalf("redraw %d cell %d: redrawn %v/%v, fresh %v/%v", r, k, xb.posG[k], xb.negG[k], fresh.posG[k], fresh.negG[k])
			}
		}
		if got, want := outputs(xb), outputs(fresh); got != want {
			t.Fatalf("%dx%d kind %d Γ %d redraw %d (%d walked, %d before): redrawn %s, fresh %s",
				rows, cols, rc.kind, window, r, len(xb.walkCols), walked[len(walked)-1], got, want)
		}
		// Both have now run the same kernels on the same counts, so what
		// they derived must match too, padding lanes and tables included.
		if got, want := derived(xb), derived(fresh); got != want {
			t.Fatalf("%dx%d kind %d Γ %d redraw %d: redrawn derived %s, fresh %s", rows, cols, rc.kind, window, r, got, want)
		}
		walked = append(walked, len(xb.walkCols))
	}
	return walked
}

// derived prints what the kernel derives from a crossbar's conductances:
// the column split, the tables, the float lane rows both float-walk bodies
// read and the integer lane rows.
func derived(c *Crossbar) string {
	return fmt.Sprint(c.walkCols, c.tabCols, c.nTabs, c.maxDrive, c.tables, c.floatG, c.laneG)
}

// FuzzRedrawVsProgram fuzzes Redraw against a fresh Program from the same
// rng state (checkRedrawVsProgram): 1–64 rows and columns, Γ 16/64/128,
// noisy programming with and without stuck cells, and ideal programming
// with stuck cells. The corpus's first two seeds change
// the walked/tabulated split between draws, once across a 4-column float
// lane block and once within one (TestRedrawSplitChanges pins both), so a
// redraw that kept a structure derived from the old conductances — the
// float lane rows, their padding lanes, a table — fails here. CI runs a
// short -fuzztime smoke pass.
func FuzzRedrawVsProgram(f *testing.F) {
	for _, rc := range redrawSplitSeeds {
		f.Add(rc.seed, rc.rows8, rc.cols8, rc.io8, rc.kind, rc.cells8, rc.redraws8, rc.countBytes)
	}
	f.Add(int64(3), uint8(15), uint8(23), uint8(1), uint8(2), uint8(3), uint8(3), []byte{0, 6, 0, 0, 9, 5, 0, 7})
	f.Add(int64(4), uint8(40), uint8(4), uint8(0), uint8(1), uint8(0), uint8(1), []byte{130, 64, 63, 1, 255})
	f.Add(int64(5), uint8(17), uint8(9), uint8(1), uint8(3), uint8(3), uint8(2), []byte{64, 1, 33})
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, io8, kind, cells8, redraws8 uint8, countBytes []byte) {
		checkRedrawVsProgram(t, redrawCase{seed, rows8, cols8, io8, kind, cells8, redraws8, countBytes})
	})
}

// redrawSplitSeeds are FuzzRedrawVsProgram's seeds whose draws move columns
// between the walk and the tables: the first changes floatHalf, the second
// changes the walked-column count within one floatHalf.
var redrawSplitSeeds = []redrawCase{
	{3, 2, 9, 2, 4, 0, 3, []byte{5, 0, 17, 40, 2}},  // 3×10 at Γ 128: walks 10, 8, 10, 10, 10
	{1, 3, 11, 1, 4, 0, 3, []byte{5, 0, 17, 40, 2}}, // 4×12 at Γ 64: walks 12, 11, 11, 12, 11
}

// TestRedrawSplitChanges pins what redrawSplitSeeds promise, so the corpus
// keeps exercising a crossbar whose walked columns change under a redraw.
func TestRedrawSplitChanges(t *testing.T) {
	halves := func(walked []int) []int {
		h := make([]int, len(walked))
		for i, n := range walked {
			h[i] = (n + 3) &^ 3
		}
		return h
	}
	halfChanges, countOnly := false, false
	for i, rc := range redrawSplitSeeds {
		walked := checkRedrawVsProgram(t, rc)
		h := halves(walked)
		for k := 1; k < len(walked); k++ {
			switch {
			case i == 0 && h[k] != h[k-1]:
				halfChanges = true
			case i == 1 && h[k] == h[k-1] && walked[k] != walked[k-1]:
				countOnly = true
			}
		}
		t.Logf("seed %d: walked %v", i, walked)
	}
	if !halfChanges || !countOnly {
		t.Errorf("floatHalf changed: %v, walked count changed within one floatHalf: %v; want both", halfChanges, countOnly)
	}
}

// TestRedrawAllocs pins that redrawing a crossbar that has run its kernel
// allocates nothing — the noisy call redraws every crossbar of its
// executor — on offline_mlp_noisy_sparse's two shapes, noisy, with stuck
// cells. Redraw followed by a kernel call under the CPU's own body
// allocates nothing either, once the buffers have grown to the largest
// split the warm-up draws produced.
func TestRedrawAllocs(t *testing.T) {
	cfg := testConfig(0)
	cfg.Spec = device.Cell4BitMeasured
	for _, shape := range [][2]int{{16, 24}, {24, 4}} {
		rows, cols := shape[0], shape[1]
		rng := rand.New(rand.NewSource(81))
		weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
		fm := device.FaultMap{Rows: rows, Cols: cols,
			Cells: []device.FaultCell{{Row: 1, Col: 2, Kind: device.FaultStuckHigh}, {Row: 3, Col: 0, Kind: device.FaultStuckLow}}}
		mask := fm.MaskFor(rows, cols, false)
		c := cfg
		c.Eta, c.Faults = synthEta(weights), &mask
		prng := rand.New(rand.NewSource(83))
		xb, err := Program(c, weights, prng)
		if err != nil {
			t.Fatal(err)
		}
		src := countsAtDensity(rng, 8*rows, xb.Window(), 0.03)
		dst := make([]int, 8*cols)
		kernel := func() {
			for _, body := range laneBodies() {
				restore := useLaneBody(body.avx2)
				err := xb.SimulateCountsBatch(dst, src, 8)
				restore()
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 8 {
			kernel()
			xb.Redraw(prng)
		}
		if got := testing.AllocsPerRun(20, func() { xb.Redraw(prng) }); got != 0 {
			t.Errorf("Redraw(%dx%d) allocates %v times per call, want 0", rows, cols, got)
		}
		if got := testing.AllocsPerRun(20, func() {
			xb.Redraw(prng)
			if err := xb.SimulateCountsBatch(dst, src, 8); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Redraw(%dx%d) then the kernel allocate %v times per call, want 0", rows, cols, got)
		}
	}
}
