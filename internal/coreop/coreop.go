// Package coreop defines the core-op graph — the hardware-facing
// intermediate representation the neural synthesizer emits and the
// spatial-to-temporal mapper consumes (paper §5, Figure 5). A core-op is a
// low-precision vector-matrix multiplication (≤256×256) followed by ReLU;
// core-ops sharing one weight matrix form a weight group whose reuse degree
// drives PE allocation (§5.2).
package coreop

import "fmt"

// Kind classifies what a weight group implements, for utilization reports
// (§7.3 observes that synthesized pooling dominates GoogLeNet's PEs).
type Kind int

// Group kinds.
const (
	KindCompute     Kind = iota // conv / FC tile
	KindReduce                  // partial-sum reduction of a row-split layer
	KindPool                    // max/avg pooling structure
	KindElementwise             // residual add, LRN approximation, etc.
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindReduce:
		return "reduce"
	case KindPool:
		return "pool"
	case KindElementwise:
		return "elementwise"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Group is one weight matrix tile: the unit of PE allocation. All core-ops
// in the group execute the same matrix on different inputs (weight reuse).
type Group struct {
	ID    int
	Layer string // originating CG node
	Name  string // unique tile name
	Kind  Kind
	// Rows/Cols is the crossbar footprint the tile occupies (each ≤ the
	// PE's logical dimensions).
	Rows, Cols int
	// UsefulWeights counts the mathematically meaningful (potentially
	// nonzero) cells; block-diagonal lowerings occupy a Rows×Cols
	// footprint but use far fewer cells, which is what the spatial
	// utilization bound measures.
	UsefulWeights int64
	// Reuse is the group's reuse degree: how many core-ops (input
	// positions) share this matrix per sample.
	Reuse int
	// Deps lists group IDs whose outputs this group's core-ops consume.
	Deps []int
	// Weights optionally carries the quantized matrix for functional
	// execution (nil for shape-only synthesis of the large zoo models).
	Weights [][]int
	// Eta is the neuron threshold the synthesizer chose (0 = PE
	// default).
	Eta float64
}

// Footprint returns Rows×Cols.
func (g *Group) Footprint() int64 { return int64(g.Rows) * int64(g.Cols) }

// Graph is a synthesized core-op graph.
type Graph struct {
	Name   string
	Groups []*Group
}

// AddGroup appends a group, assigning its ID.
func (g *Graph) AddGroup(grp *Group) *Group {
	grp.ID = len(g.Groups)
	g.Groups = append(g.Groups, grp)
	return grp
}

// MaxReuse returns the largest reuse degree over all groups (the model's
// reuse degree, §5.2).
func (g *Graph) MaxReuse() int {
	max := 0
	for _, grp := range g.Groups {
		if grp.Reuse > max {
			max = grp.Reuse
		}
	}
	return max
}

// GroupsByKind returns the number of groups (≡ minimum PEs) per kind.
func (g *Graph) GroupsByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, grp := range g.Groups {
		m[grp.Kind]++
	}
	return m
}

// TotalCoreOps returns Σ reuse over groups — the number of core-op
// executions per sample.
func (g *Graph) TotalCoreOps() int64 {
	var total int64
	for _, grp := range g.Groups {
		total += int64(grp.Reuse)
	}
	return total
}

// Validate checks ID consistency, dependency sanity and footprint limits
// against the given logical crossbar dimensions.
func (g *Graph) Validate(maxRows, maxCols int) error {
	for i, grp := range g.Groups {
		if grp.ID != i {
			return fmt.Errorf("coreop: group %q has ID %d at index %d", grp.Name, grp.ID, i)
		}
		if grp.Rows <= 0 || grp.Cols <= 0 {
			return fmt.Errorf("coreop: group %q has empty footprint %dx%d", grp.Name, grp.Rows, grp.Cols)
		}
		if grp.Rows > maxRows || grp.Cols > maxCols {
			return fmt.Errorf("coreop: group %q footprint %dx%d exceeds PE %dx%d", grp.Name, grp.Rows, grp.Cols, maxRows, maxCols)
		}
		if grp.Reuse <= 0 {
			return fmt.Errorf("coreop: group %q reuse %d", grp.Name, grp.Reuse)
		}
		if grp.UsefulWeights <= 0 || grp.UsefulWeights > grp.Footprint() {
			return fmt.Errorf("coreop: group %q useful weights %d outside (0,%d]", grp.Name, grp.UsefulWeights, grp.Footprint())
		}
		for _, d := range grp.Deps {
			if d < 0 || d >= len(g.Groups) {
				return fmt.Errorf("coreop: group %q dep %d out of range", grp.Name, d)
			}
			if d >= grp.ID {
				return fmt.Errorf("coreop: group %q dep %d not earlier (graph must be topological)", grp.Name, d)
			}
		}
		if grp.Weights != nil {
			if len(grp.Weights) != grp.Rows {
				return fmt.Errorf("coreop: group %q carries %d weight rows, footprint %d", grp.Name, len(grp.Weights), grp.Rows)
			}
			for r, row := range grp.Weights {
				if len(row) != grp.Cols {
					return fmt.Errorf("coreop: group %q weight row %d has %d cols, footprint %d", grp.Name, r, len(row), grp.Cols)
				}
			}
		}
	}
	return nil
}
