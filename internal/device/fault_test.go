package device

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestFaultMapDeterministic: MapForUnit is a pure function of (model,
// layer, unit, geometry) — two calls agree cell for cell, and distinct
// units land on distinct draws.
func TestFaultMapDeterministic(t *testing.T) {
	fm := &FaultModel{Rate: 0.05, Seed: 42, Drift: 0.1, ReadSigma: 1e-6}
	a := fm.MapForUnit("fc1", 3, 64, 32)
	b := fm.MapForUnit("fc1", 3, 64, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (model, layer, unit, geometry) produced different maps")
	}
	if len(a.Cells) == 0 {
		t.Fatal("5% rate over 2048 cells produced no faults")
	}
	other := fm.MapForUnit("fc1", 4, 64, 32)
	if reflect.DeepEqual(a.Cells, other.Cells) {
		t.Fatal("distinct units drew identical fault populations")
	}
	if a.ReadSeed == other.ReadSeed {
		t.Fatal("distinct units share a read-offset seed")
	}
}

// TestFaultMapLayerSeeds: a per-layer seed override re-rolls that layer's
// units and leaves the others on the model seed.
func TestFaultMapLayerSeeds(t *testing.T) {
	base := &FaultModel{Rate: 0.05, Seed: 1}
	binned := &FaultModel{Rate: 0.05, Seed: 1, Seeds: map[string]int64{"fc2": 99}}
	if a, b := base.MapForUnit("fc1", 0, 64, 32), binned.MapForUnit("fc1", 0, 64, 32); !reflect.DeepEqual(a, b) {
		t.Fatal("unlisted layer shifted under a LayerSeeds override")
	}
	if a, b := base.MapForUnit("fc2", 1, 64, 32), binned.MapForUnit("fc2", 1, 64, 32); reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatal("overridden layer kept the model seed's faults")
	}
}

// TestFaultMapInactive: nil and all-zero models report inactive and
// generate empty maps; any nonzero knob flips Active.
func TestFaultMapInactive(t *testing.T) {
	var nilModel *FaultModel
	if nilModel.Active() {
		t.Fatal("nil model active")
	}
	if (&FaultModel{Seed: 5, Remap: true}).Active() {
		t.Fatal("zero-rate model active")
	}
	for name, fm := range map[string]*FaultModel{
		"rate":  {Rate: 0.1},
		"drift": {Drift: 0.1},
		"sigma": {ReadSigma: 0.1},
	} {
		if !fm.Active() {
			t.Fatalf("%s-only model inactive", name)
		}
	}
	m := (&FaultModel{Seed: 5}).MapForUnit("l", 0, 8, 8)
	if !m.Empty() {
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
// bad geometry or analog parameters, out-of-range or unknown-kind cells,
// and cells out of canonical row-major order or duplicated.
func TestFaultMapValidateRejects(t *testing.T) {
	for name, m := range map[string]FaultMap{
		"zero-geometry": {},
		"nan-drift":     {Rows: 2, Cols: 2, Drift: math.NaN()},
		"big-drift":     {Rows: 2, Cols: 2, Drift: 1},
		"neg-sigma":     {Rows: 2, Cols: 2, ReadSigma: -1},
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
// The trailing string argument is unused; it keeps the signature of the
// committed seed corpus under testdata/fuzz/FuzzFaultMapRoundTrip, which
// dates from a wire format nothing wrote or read. CI runs a short smoke
// pass.
func FuzzFaultMapRoundTrip(f *testing.F) {
	f.Add(0.1, int64(7), 3, 16, 8, 0.05, 1e-7, "")
	f.Add(1.0, int64(-3), 0, 4, 4, 0.0, 0.0, "")
	f.Add(0.0, int64(0), 11, 64, 1, 0.999, 5.5, "")
	f.Fuzz(func(t *testing.T, rate float64, seed int64, unit, rows, cols int, drift, sigma float64, _ string) {
		if rows < 1 || cols < 1 || rows*cols < 1 || rows*cols > 4096 ||
			math.IsNaN(rate) ||
			drift < 0 || drift >= 1 || math.IsNaN(drift) ||
			sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Skip()
		}
		fm := &FaultModel{Rate: rate, Seed: seed, Drift: drift, ReadSigma: sigma}
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
// cells at moderate, heavy and saturated rates, both stuck-kind splits,
// per-layer seeds, and the analog-only models that carry no cells at all.
func memoModels(remap bool) map[string]*FaultModel {
	return map[string]*FaultModel{
		"rate":        {Rate: 0.05, Seed: 11, Remap: remap},
		"layer-seeds": {Rate: 0.05, Seed: 11, Seeds: map[string]int64{"fc2": 99}, Remap: remap},
		"high-frac":   {Rate: 0.05, Seed: 12, HighFrac: 0.9, Remap: remap},
		"rate-half":   {Rate: 0.5, Seed: 13, Drift: 0.1, Remap: remap},
		"rate-over-1": {Rate: 1.5, Seed: 14, Remap: remap},
		"drift-only":  {Drift: 0.2, Seed: 15, Remap: remap},
		"sigma-only":  {ReadSigma: 0.3, Seed: 16, Remap: remap},
	}
}

// TestMaskForUnitMatchesDerivation: the memoised mask is exactly the
// MapForUnit→MaskFor projection, the second ask returns the same shared
// mask, and the mapper's unretained residual is its Faulted count.
func TestMaskForUnitMatchesDerivation(t *testing.T) {
	for _, remap := range []bool{false, true} {
		for name, fm := range memoModels(remap) {
			for _, layer := range []string{"fc1", "fc2"} {
				for unit := 0; unit < 3; unit++ {
					want := fm.MapForUnit(layer, unit, 32, 24).MaskFor(20, 16, remap)
					got := fm.MaskForUnit(layer, unit, 32, 24, 20, 16)
					if !reflect.DeepEqual(*got, want) {
						t.Fatalf("%s remap=%v %s/%d: memoised mask differs from MapForUnit→MaskFor", name, remap, layer, unit)
					}
					if again := fm.MaskForUnit(layer, unit, 32, 24, 20, 16); again != got {
						t.Fatalf("%s remap=%v %s/%d: second call derived a new mask", name, remap, layer, unit)
					}
					if res := fm.ResidualForUnit(layer, unit, 32, 24, 20, 16); res != want.Faulted {
						t.Fatalf("%s remap=%v %s/%d: residual %d, mask has %d faulted", name, remap, layer, unit, res, want.Faulted)
					}
				}
			}
		}
	}
}

// TestMaskForUnitKeys: every component of the key — unit, layer seed,
// physical geometry, logical region — selects its own mask, each equal to
// its own fresh derivation however the asks interleave.
func TestMaskForUnitKeys(t *testing.T) {
	fm := &FaultModel{Rate: 0.2, Seed: 5, Seeds: map[string]int64{"b": 9}}
	type ask struct {
		layer                                string
		unit, physRows, physCols, rows, cols int
	}
	asks := []ask{
		{"a", 0, 32, 24, 20, 16},
		{"a", 1, 32, 24, 20, 16}, // unit
		{"b", 0, 32, 24, 20, 16}, // layer seed
		{"a", 0, 40, 24, 20, 16}, // physical rows
		{"a", 0, 32, 30, 20, 16}, // physical cols
		{"a", 0, 32, 24, 16, 16}, // logical rows
		{"a", 0, 32, 24, 20, 20}, // logical cols
	}
	seen := make(map[*FaultMask]int)
	for round := 0; round < 2; round++ {
		for i, a := range asks {
			got := fm.MaskForUnit(a.layer, a.unit, a.physRows, a.physCols, a.rows, a.cols)
			want := fm.MapForUnit(a.layer, a.unit, a.physRows, a.physCols).MaskFor(a.rows, a.cols, false)
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
	if nilModel.MaskForUnit("l", 0, 8, 8, 4, 4) != nil || nilModel.ResidualForUnit("l", 0, 8, 8, 4, 4) != 0 {
		t.Fatal("nil model produced a mask")
	}
	zero := &FaultModel{Seed: 5, Remap: true}
	if zero.MaskForUnit("l", 0, 8, 8, 4, 4) != nil || zero.ResidualForUnit("l", 0, 8, 8, 4, 4) != 0 {
		t.Fatal("inactive model produced a mask")
	}
	if zero.masks != nil {
		t.Fatal("inactive model populated its memo")
	}
	if n := testing.AllocsPerRun(10, func() { zero.MaskForUnit("l", 0, 8, 8, 4, 4) }); n != 0 {
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
				got[w][u] = fm.MaskForUnit("l", u, 32, 24, 20, 16)
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
