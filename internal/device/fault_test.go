package device

import (
	"reflect"
	"sync"
	"testing"
)

// TestFaultMapDeterministic: MapForUnit is a pure function of (model,
// unit, geometry) — two calls agree cell for cell, the layer name changes
// nothing (the mask memo's key leaves it out), and distinct units land on
// distinct draws.
func TestFaultMapDeterministic(t *testing.T) {
	fm := &FaultModel{Rate: 0.05, Seed: 42}
	a := fm.MapForUnit("fc1", 3, 64, 32)
	b := fm.MapForUnit("fc1", 3, 64, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (model, unit, geometry) produced different maps")
	}
	if len(a.Cells) == 0 {
		t.Fatal("5% rate over 2048 cells produced no faults")
	}
	if c := fm.MapForUnit("fc2", 3, 64, 32); !reflect.DeepEqual(a, c) {
		t.Fatal("the layer name changed the map")
	}
	other := fm.MapForUnit("fc1", 4, 64, 32)
	if reflect.DeepEqual(a.Cells, other.Cells) {
		t.Fatal("distinct units drew identical fault populations")
	}
}

// TestFaultMapInactive: nil and zero-rate models report inactive and
// generate empty maps; a nonzero rate flips Active.
func TestFaultMapInactive(t *testing.T) {
	var nilModel *FaultModel
	if nilModel.Active() {
		t.Fatal("nil model active")
	}
	if (&FaultModel{Seed: 5, Remap: true}).Active() {
		t.Fatal("zero-rate model active")
	}
	if !(&FaultModel{Rate: 0.1}).Active() {
		t.Fatal("rate-only model inactive")
	}
	m := (&FaultModel{Seed: 5}).MapForUnit("l", 0, 8, 8)
	if len(m.Cells) != 0 {
		t.Fatal("zero-rate map not empty")
	}
	mask := m.MaskFor(4, 4, true)
	if mask.Active() {
		t.Fatal("empty map produced an active mask")
	}
}

// TestFaultMapRemapSteersAroundFaults: a hand-built map whose faults
// concentrate on specific rows/columns must be fully avoided when spares
// exist, with deterministic ascending selections.
func TestFaultMapRemapSteersAroundFaults(t *testing.T) {
	m := FaultMap{Rows: 6, Cols: 6, Cells: []FaultCell{
		{Row: 1, Col: 0, Kind: FaultStuckHigh},
		{Row: 1, Col: 3, Kind: FaultStuckLow},
		{Row: 4, Col: 2, Kind: FaultStuckLow},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rows, cols, residual := m.Remap(4, 4)
	if residual != 0 {
		t.Fatalf("residual %d with 2 spare rows for 2 faulty ones", residual)
	}
	if want := []int{0, 2, 3, 5}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("row selection %v, want %v", rows, want)
	}
	if len(cols) != 4 {
		t.Fatalf("col selection %v, want 4 columns", cols)
	}
	mask := m.MaskFor(4, 4, true)
	if mask.Faulted != 0 {
		t.Fatalf("remapped mask carries %d faults", mask.Faulted)
	}
	// Identity projection keeps the origin region's faults.
	ident := m.MaskFor(4, 4, false)
	if ident.Faulted != 2 {
		t.Fatalf("identity mask carries %d faults, want 2 (cells at rows 1 and col ≤ 3)", ident.Faulted)
	}
	if got := ident.Stuck(1, 0); got != FaultStuckHigh {
		t.Fatalf("Stuck(1,0) = %v, want stuck-high", got)
	}
	if got := ident.Stuck(0, 0); got != 0 {
		t.Fatalf("Stuck(0,0) = %v, want healthy", got)
	}
}

// TestFaultMapValidateRejects covers the malformed maps Validate rejects:
// bad geometry, out-of-range or unknown-kind cells, and cells out of
// canonical row-major order or duplicated.
func TestFaultMapValidateRejects(t *testing.T) {
	for name, m := range map[string]FaultMap{
		"zero-geometry": {},
		"cell-range":    {Rows: 2, Cols: 2, Cells: []FaultCell{{Row: 2, Col: 0, Kind: FaultStuckLow}}},
		"cell-kind":     {Rows: 2, Cols: 2, Cells: []FaultCell{{Row: 0, Col: 0, Kind: 9}}},
		"cell-order":    {Rows: 2, Cols: 2, Cells: []FaultCell{{Row: 1, Col: 0, Kind: FaultStuckLow}, {Row: 0, Col: 1, Kind: FaultStuckLow}}},
		"cell-dup":      {Rows: 2, Cols: 2, Cells: []FaultCell{{Row: 0, Col: 1, Kind: FaultStuckLow}, {Row: 0, Col: 1, Kind: FaultStuckHigh}}},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, m)
		}
	}
}

// FuzzFaultMapRoundTrip fuzzes the generator: for any fault model and
// geometry, MapForUnit's map passes Validate — canonical row-major cells,
// in range, of a known kind — and generating it again yields the same map.
// CI runs a short smoke pass.
func FuzzFaultMapRoundTrip(f *testing.F) {
	f.Add(0.1, int64(7), 3, 16, 8)
	f.Add(1.0, int64(-3), 0, 4, 4)
	f.Add(0.0, int64(0), 11, 64, 1)
	f.Fuzz(func(t *testing.T, rate float64, seed int64, unit, rows, cols int) {
		if rows < 1 || cols < 1 || rows*cols < 1 || rows*cols > 4096 {
			t.Skip()
		}
		fm := &FaultModel{Rate: rate, Seed: seed}
		m := fm.MapForUnit("fuzz", unit, rows, cols)
		if err := m.Validate(); err != nil {
			t.Fatalf("generated map invalid: %v", err)
		}
		if again := fm.MapForUnit("fuzz", unit, rows, cols); !reflect.DeepEqual(again, m) {
			t.Fatalf("regenerating changed the map: %+v != %+v", again, m)
		}
	})
}

// memoModels are the scenarios the MaskForUnit memo is pinned on: stuck
// cells at moderate, heavy and saturated rates.
func memoModels(remap bool) map[string]*FaultModel {
	return map[string]*FaultModel{
		"rate":        {Rate: 0.05, Seed: 11, Remap: remap},
		"rate-half":   {Rate: 0.5, Seed: 13, Remap: remap},
		"rate-over-1": {Rate: 1.5, Seed: 14, Remap: remap},
	}
}

// TestMaskForUnitMatchesDerivation: the memoised mask is exactly the
// MapForUnit→MaskFor projection, the second ask returns the same shared
// mask, and the mapper's unretained residual is its Faulted count.
func TestMaskForUnitMatchesDerivation(t *testing.T) {
	for _, remap := range []bool{false, true} {
		for name, fm := range memoModels(remap) {
			for unit := 0; unit < 6; unit++ {
				want := fm.MapForUnit("l", unit, 32, 24).MaskFor(20, 16, remap)
				got := fm.MaskForUnit(unit, 32, 24, 20, 16)
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("%s remap=%v unit %d: memoised mask differs from MapForUnit→MaskFor", name, remap, unit)
				}
				if again := fm.MaskForUnit(unit, 32, 24, 20, 16); again != got {
					t.Fatalf("%s remap=%v unit %d: second call derived a new mask", name, remap, unit)
				}
				if res := fm.ResidualForUnit(unit, 32, 24, 20, 16); res != want.Faulted {
					t.Fatalf("%s remap=%v unit %d: residual %d, mask has %d faulted", name, remap, unit, res, want.Faulted)
				}
			}
		}
	}
}

// TestMaskForUnitKeys: every component of the key — unit, physical
// geometry, logical region — selects its own mask, each equal to its own
// fresh derivation however the asks interleave.
func TestMaskForUnitKeys(t *testing.T) {
	fm := &FaultModel{Rate: 0.2, Seed: 5}
	type ask struct {
		unit, physRows, physCols, rows, cols int
	}
	asks := []ask{
		{0, 32, 24, 20, 16},
		{1, 32, 24, 20, 16}, // unit
		{0, 40, 24, 20, 16}, // physical rows
		{0, 32, 30, 20, 16}, // physical cols
		{0, 32, 24, 16, 16}, // logical rows
		{0, 32, 24, 20, 20}, // logical cols
	}
	seen := make(map[*FaultMask]int)
	for round := 0; round < 2; round++ {
		for i, a := range asks {
			got := fm.MaskForUnit(a.unit, a.physRows, a.physCols, a.rows, a.cols)
			want := fm.MapForUnit("l", a.unit, a.physRows, a.physCols).MaskFor(a.rows, a.cols, false)
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("round %d ask %d (%+v): mask differs from its own derivation", round, i, a)
			}
			if prev, ok := seen[got]; ok && prev != i {
				t.Fatalf("asks %d and %d share one mask", prev, i)
			}
			seen[got] = i
		}
	}
	if len(seen) != len(asks) {
		t.Fatalf("%d distinct masks for %d distinct keys", len(seen), len(asks))
	}
}

// TestMaskForUnitInactive: nil and inactive models mask nothing and never
// touch the memo, so the unfaulted path stays lock- and allocation-free.
func TestMaskForUnitInactive(t *testing.T) {
	var nilModel *FaultModel
	if nilModel.MaskForUnit(0, 8, 8, 4, 4) != nil || nilModel.ResidualForUnit(0, 8, 8, 4, 4) != 0 {
		t.Fatal("nil model produced a mask")
	}
	zero := &FaultModel{Seed: 5, Remap: true}
	if zero.MaskForUnit(0, 8, 8, 4, 4) != nil || zero.ResidualForUnit(0, 8, 8, 4, 4) != 0 {
		t.Fatal("inactive model produced a mask")
	}
	if zero.masks != nil {
		t.Fatal("inactive model populated its memo")
	}
	if n := testing.AllocsPerRun(10, func() { zero.MaskForUnit(0, 8, 8, 4, 4) }); n != 0 {
		t.Fatalf("inactive MaskForUnit allocates %v times", n)
	}
}

// TestMaskForUnitConcurrent: goroutines racing on the same keys all get
// the one shared mask per key (run under -race in CI).
func TestMaskForUnitConcurrent(t *testing.T) {
	fm := &FaultModel{Rate: 0.1, Seed: 21, Remap: true}
	const workers, units = 8, 4
	got := make([][units]*FaultMask, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := 0; u < units; u++ {
				got[w][u] = fm.MaskForUnit(u, 32, 24, 20, 16)
			}
		}(w)
	}
	wg.Wait()
	for u := 0; u < units; u++ {
		want := fm.MapForUnit("l", u, 32, 24).MaskFor(20, 16, true)
		for w := 0; w < workers; w++ {
			if got[w][u] != got[0][u] {
				t.Fatalf("unit %d: workers 0 and %d hold different masks", u, w)
			}
		}
		if !reflect.DeepEqual(*got[0][u], want) {
			t.Fatalf("unit %d: shared mask differs from its derivation", u)
		}
	}
}
