// Package mapper implements FPSA's spatial-to-temporal mapper (paper §5.2):
// it allocates PE copies to weight groups (duplication degrees), schedules
// core-op execution under the paper's five constraints (Algorithm 1),
// decides where SMB buffers are required, and emits the function-block
// netlist for placement & routing.
package mapper

import (
	"fmt"
	"sort"

	"fpsa/internal/coreop"
)

// Allocation assigns PE copies to weight groups.
type Allocation struct {
	// ModelDup is the model's duplication degree: the duplication of the
	// group with the maximum reuse degree (§5.2).
	ModelDup int
	// Dup[g] is group g's duplication degree (≥1).
	Dup []int
	// Iterations[g] = ceil(reuse/dup): how many time-division iterations
	// group g needs per sample.
	Iterations []int
	// TotalPEs is Σ dup.
	TotalPEs int
}

// Allocate balances pipeline stages for the requested model duplication
// degree: the target iteration count is that of the maximum-reuse group at
// modelDup copies, and every group receives just enough duplicates to meet
// it (never more copies than its reuse degree can use).
func Allocate(g *coreop.Graph, modelDup int) (Allocation, error) {
	return AllocateAssigned(g, modelDup, nil)
}

// AllocateAssigned is Allocate with per-layer overrides: every group whose
// Layer appears in layerDup receives that duplication degree (clamped to
// its reuse degree — extra copies a group cannot use are not spent),
// while the remaining groups follow the uniform modelDup policy. A nil or
// empty layerDup is exactly Allocate. Overrides must name layers that
// exist in the graph and be ≥ 1.
func AllocateAssigned(g *coreop.Graph, modelDup int, layerDup map[string]int) (Allocation, error) {
	if modelDup < 1 {
		return Allocation{}, fmt.Errorf("mapper: duplication degree %d must be ≥1", modelDup)
	}
	if len(g.Groups) == 0 {
		return Allocation{}, fmt.Errorf("mapper: empty core-op graph")
	}
	if len(layerDup) > 0 {
		layers := make(map[string]bool, len(g.Groups))
		for _, grp := range g.Groups {
			layers[grp.Layer] = true
		}
		names := make([]string, 0, len(layerDup))
		for name := range layerDup { //fpsa:nondet collects keys; sorted below
			names = append(names, name)
		}
		sort.Strings(names) // deterministic error selection
		for _, name := range names {
			if dup := layerDup[name]; dup < 1 {
				return Allocation{}, fmt.Errorf("mapper: layer %q duplication degree %d must be ≥1", name, dup)
			}
			if !layers[name] {
				return Allocation{}, fmt.Errorf("mapper: layer %q not in model", name)
			}
		}
	}
	maxReuse := g.MaxReuse()
	if modelDup > maxReuse {
		modelDup = maxReuse // more copies than reuse degree cannot help
	}
	target := ceilDiv(maxReuse, modelDup)
	a := Allocation{
		ModelDup:   modelDup,
		Dup:        make([]int, len(g.Groups)),
		Iterations: make([]int, len(g.Groups)),
	}
	for i, grp := range g.Groups {
		dup := ceilDiv(grp.Reuse, target)
		if v, ok := layerDup[grp.Layer]; ok {
			dup = v
		}
		if dup < 1 {
			dup = 1
		}
		if dup > grp.Reuse {
			dup = grp.Reuse
		}
		a.Dup[i] = dup
		a.Iterations[i] = ceilDiv(grp.Reuse, dup)
		a.TotalPEs += dup
	}
	return a, nil
}

// AllocateVector builds an Allocation from an explicit per-group
// duplication vector (clamped to each group's reuse degree). It is the
// form the autotuner's cost oracle evaluates: candidates are per-group
// assignments, not a single knob. ModelDup records the maximum assigned
// degree so downstream consumers see a meaningful summary value.
func AllocateVector(g *coreop.Graph, dup []int) (Allocation, error) {
	if len(g.Groups) == 0 {
		return Allocation{}, fmt.Errorf("mapper: empty core-op graph")
	}
	if len(dup) != len(g.Groups) {
		return Allocation{}, fmt.Errorf("mapper: duplication vector has %d entries for %d groups", len(dup), len(g.Groups))
	}
	a := Allocation{
		Dup:        make([]int, len(g.Groups)),
		Iterations: make([]int, len(g.Groups)),
	}
	for i, grp := range g.Groups {
		d := dup[i]
		if d < 1 {
			return Allocation{}, fmt.Errorf("mapper: group %d duplication degree %d must be ≥1", i, d)
		}
		if d > grp.Reuse {
			d = grp.Reuse
		}
		a.Dup[i] = d
		a.Iterations[i] = ceilDiv(grp.Reuse, d)
		a.TotalPEs += d
		if d > a.ModelDup {
			a.ModelDup = d
		}
	}
	return a, nil
}

// MaxIterations returns the pipeline-bottleneck iteration count.
func (a Allocation) MaxIterations() int {
	max := 0
	for _, it := range a.Iterations {
		if it > max {
			max = it
		}
	}
	return max
}

// Buffered is the steady-state pipeline rule for the edge u→v (§5.2): it
// chains bufferlessly (NBD, the paper's direct spike-train chaining) only
// when neither side time-multiplexes its weights; every
// time-division-multiplexed connection needs an SMB to hold intermediate
// counts. The netlist, the energy model and the latency model all ask it.
func (a Allocation) Buffered(u, v int) bool {
	return a.Iterations[u] > 1 || a.Iterations[v] > 1
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
