package mapper

import (
	"reflect"
	"testing"
)

// TestAllocateAssignedNilMatchesAllocate: with no overrides the assigned
// allocator is exactly the classic balanced one — the fpsa-level
// equivalence property, pinned where it is cheapest to check.
func TestAllocateAssignedNilMatchesAllocate(t *testing.T) {
	g := chainGraph(100, 10, 1)
	for _, dup := range []int{1, 5, 10, 64} {
		classic, err := Allocate(g, dup)
		if err != nil {
			t.Fatal(err)
		}
		assigned, err := AllocateAssigned(g, dup, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(classic, assigned) {
			t.Errorf("dup %d: %+v vs %+v", dup, classic, assigned)
		}
	}
}

// TestAllocateAssignedOverrides: a per-layer entry replaces the uniform
// target for that layer's groups and is clamped to each group's reuse.
func TestAllocateAssignedOverrides(t *testing.T) {
	g := chainGraph(100, 10, 1) // all groups in layer "l"
	a, err := AllocateAssigned(g, 1, map[string]int{"l": 25})
	if err != nil {
		t.Fatal(err)
	}
	// 25 copies where reuse allows, clamped to 10 and 1 elsewhere.
	if !reflect.DeepEqual(a.Dup, []int{25, 10, 1}) {
		t.Errorf("Dup = %v, want [25 10 1]", a.Dup)
	}
	if a.TotalPEs != 36 {
		t.Errorf("TotalPEs = %d, want 36", a.TotalPEs)
	}
	// Iterations shrink accordingly: ceil(100/25) = 4 on the hot group.
	if a.Dup[0] != 25 || a.Iterations[0] != 4 {
		t.Errorf("group 0: dup %d iterations %d, want 25/4", a.Dup[0], a.Iterations[0])
	}
}

// TestAllocateAssignedValidation: bad degrees and unknown layers are
// errors, not silent no-ops.
func TestAllocateAssignedValidation(t *testing.T) {
	g := chainGraph(4, 1)
	if _, err := AllocateAssigned(g, 0, nil); err == nil {
		t.Error("modelDup 0 accepted")
	}
	if _, err := AllocateAssigned(g, 1, map[string]int{"l": 0}); err == nil {
		t.Error("zero layer degree accepted")
	}
	if _, err := AllocateAssigned(g, 1, map[string]int{"l": -2}); err == nil {
		t.Error("negative layer degree accepted")
	}
	if _, err := AllocateAssigned(g, 1, map[string]int{"ghost": 2}); err == nil {
		t.Error("unknown layer accepted")
	}
}

// TestAllocateVector: the per-group form the autotuner scores with —
// exact degrees, clamped to reuse.
func TestAllocateVector(t *testing.T) {
	g := chainGraph(100, 10, 1)
	a, err := AllocateVector(g, []int{50, 99, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Dup, []int{50, 10, 1}) {
		t.Errorf("Dup = %v, want [50 10 1] (clamped to reuse)", a.Dup)
	}
	if a.Iterations[0] != 2 {
		t.Errorf("Iterations[0] = %d, want ceil(100/50) = 2", a.Iterations[0])
	}
}

// TestAllocateVectorValidation: length mismatch and sub-1 degrees fail.
func TestAllocateVectorValidation(t *testing.T) {
	g := chainGraph(4, 1)
	if _, err := AllocateVector(g, []int{1}); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := AllocateVector(g, []int{1, 1, 1}); err == nil {
		t.Error("long vector accepted")
	}
	if _, err := AllocateVector(g, []int{0, 1}); err == nil {
		t.Error("zero degree accepted")
	}
}
