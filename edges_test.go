package fpsa

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/synth"
)

// layerEdge is a producer→consumer edge between two layers' PE groups.
type layerEdge struct{ from, to string }

// TestStructuralEdgesMatchSourceLists: at dup 1, the edges between PE
// groups of a deployment's structural core-op graph (the one its netlists
// are built from) are, layer by layer, the producer→consumer edges of its
// program's per-row source lists, and the reverse: two derivations of one
// connectivity. Two kinds of group are left out, and an edge into one is
// followed back to the groups that feed it:
//   - max pooling, on both sides: the program runs every max pool on one
//     shared pairwise-max group pair, whose Deps cannot carry its real
//     wiring, while the structural graph builds each pool as a tree of
//     its own;
//   - the program's reduction groups: the structural graph follows the
//     paper's accounting, in which the consumer's counters sum a row-split
//     layer's partial counts (synth's tileMatrix), so it has no reduction
//     group and no edge from a layer to itself.
func TestStructuralEdgesMatchSourceLists(t *testing.T) {
	mlp, _, _ := trainedDeployment(t)
	convModel, err := NewModelBuilder("conv", 2, 10, 10).
		Conv2D(8, 3, 1, 1).ReLU().MaxPool(2, 2).GlobalAvgPool().FC(4).ReLU().Build()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Compile(context.Background(), convModel, randomWeights(convModel, 9, [2]int{18, 8}, [2]int{8, 4}))
	if err != nil {
		t.Fatal(err)
	}
	wideModel, err := NewModelBuilder("wide", 600, 1, 1).FC(12).ReLU().FC(6).Build()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Compile(context.Background(), wideModel, randomWeights(wideModel, 10, [2]int{600, 12}, [2]int{12, 6}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *Deployment
	}{{"mlp", mlp}, {"conv-pool-gap-fc", conv}, {"probe", probeConvNet(t)}, {"row-split", wide}} {
		structural, functional := structuralEdges(tc.d), sourceListEdges(mustNet(t, tc.d).prog)
		if len(structural) == 0 {
			t.Fatalf("%s: no edges between PE groups", tc.name)
		}
		for _, e := range structural {
			if !slices.Contains(functional, e) {
				t.Errorf("%s: structural edge %s → %s has no stage that reads it", tc.name, e.from, e.to)
			}
		}
		for _, e := range functional {
			if !slices.Contains(structural, e) {
				t.Errorf("%s: stages read %s → %s, which the structural graph lacks", tc.name, e.from, e.to)
			}
		}
	}
}

// maxPoolLayers names the model's max-pooling nodes.
func maxPoolLayers(m Model) map[string]bool {
	pools := make(map[string]bool)
	for _, n := range m.graph.Nodes() {
		if op, ok := n.Op.(cgraph.Pool); ok && op.PoolKind == cgraph.MaxPoolKind {
			pools[n.Name] = true
		}
	}
	return pools
}

// structuralEdges is the deployment's core-op Deps as layer edges, with
// max-pooling groups followed through to the groups that feed them.
func structuralEdges(d *Deployment) []layerEdge {
	if d.cfg.Duplication > 1 {
		panic(fmt.Sprintf("structuralEdges at dup %d", d.cfg.Duplication))
	}
	pools, groups := maxPoolLayers(d.model), d.coreop.Groups
	var producers func(g *coreop.Group) []string
	producers = func(g *coreop.Group) []string {
		if !pools[g.Layer] {
			return []string{g.Layer}
		}
		var layers []string
		for _, dep := range g.Deps {
			layers = append(layers, producers(groups[dep])...)
		}
		return layers
	}
	var edges []layerEdge
	for _, g := range groups {
		if pools[g.Layer] {
			continue
		}
		for _, dep := range g.Deps {
			for _, from := range producers(groups[dep]) {
				edges = addEdge(edges, layerEdge{from, g.Layer})
			}
		}
	}
	return edges
}

// sourceListEdges is the program's stage-to-stage reads as layer edges,
// with the stages of the shared pairwise-max groups and of reduction
// groups followed through to the stages they read.
func sourceListEdges(p *synth.Program) []layerEdge {
	layer := func(si int) string { return p.Graph.Groups[p.Stages[si].GroupID].Layer }
	through := func(si int) bool {
		g := p.Graph.Groups[p.Stages[si].GroupID]
		return g.Layer == "pairwise-max" || g.Kind == coreop.KindReduce
	}
	memo := make([][]string, len(p.Stages))
	var producers func(si int) []string
	producers = func(si int) []string {
		if !through(si) {
			return []string{layer(si)}
		}
		if memo[si] == nil {
			memo[si] = []string{}
			for _, ref := range p.Stages[si].InRefs {
				if ref.Stage >= 0 {
					for _, l := range producers(ref.Stage) {
						if !slices.Contains(memo[si], l) {
							memo[si] = append(memo[si], l)
						}
					}
				}
			}
		}
		return memo[si]
	}
	var edges []layerEdge
	for si, st := range p.Stages {
		if through(si) {
			continue
		}
		for _, ref := range st.InRefs {
			if ref.Stage >= 0 {
				for _, from := range producers(ref.Stage) {
					edges = addEdge(edges, layerEdge{from, layer(si)})
				}
			}
		}
	}
	return edges
}

// addEdge appends e to edges unless it is already there.
func addEdge(edges []layerEdge, e layerEdge) []layerEdge {
	if slices.Contains(edges, e) {
		return edges
	}
	return append(edges, e)
}
