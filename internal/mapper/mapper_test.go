package mapper

import (
	"testing"

	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/synth"
)

// chainGraph builds a linear core-op graph with the given reuse degrees.
func chainGraph(reuses ...int) *coreop.Graph {
	g := &coreop.Graph{Name: "chain"}
	for i, r := range reuses {
		grp := &coreop.Group{
			Layer: "l", Name: "g" + string(rune('a'+i)), Rows: 16, Cols: 16,
			UsefulWeights: 256, Reuse: r,
		}
		if i > 0 {
			grp.Deps = []int{i - 1}
		}
		g.AddGroup(grp)
	}
	return g
}

func TestAllocateBalancesIterations(t *testing.T) {
	g := chainGraph(100, 10, 1)
	a, err := Allocate(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Target iterations = 100/10 = 10: group0 gets 10 copies, group1 1,
	// group2 1.
	if a.Dup[0] != 10 || a.Dup[1] != 1 || a.Dup[2] != 1 {
		t.Errorf("Dup = %v, want [10 1 1]", a.Dup)
	}
	if a.MaxIterations() != 10 {
		t.Errorf("MaxIterations = %d, want 10", a.MaxIterations())
	}
	if a.TotalPEs != 12 {
		t.Errorf("TotalPEs = %d, want 12", a.TotalPEs)
	}
}

func TestAllocateDupNeverExceedsReuse(t *testing.T) {
	g := chainGraph(4, 1)
	a, err := Allocate(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dup[0] != 4 || a.Dup[1] != 1 {
		t.Errorf("Dup = %v, want [4 1]", a.Dup)
	}
	if a.MaxIterations() != 1 {
		t.Errorf("MaxIterations = %d", a.MaxIterations())
	}
	// The 60 copies past the maximum reuse degree of 4 are whole-model
	// replicas: 64/4 of them.
	if a.Replicas != 16 {
		t.Errorf("Replicas = %d, want 16", a.Replicas)
	}
	if v, err := AllocateVector(g, a.Dup); err != nil || v.Replicas != 1 {
		t.Errorf("AllocateVector: Replicas = %d (%v), want 1", v.Replicas, err)
	}
}

func TestAllocateValidation(t *testing.T) {
	if _, err := Allocate(chainGraph(1), 0); err == nil {
		t.Error("dup 0 accepted")
	}
	if _, err := Allocate(&coreop.Graph{}, 1); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestBuildNetlistMLP(t *testing.T) {
	co, err := synth.Synthesize(models.MLP500_100(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 1)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := BuildNetlist(co, a, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	pes, smbs, clbs := nl.Counts()
	if pes != a.TotalPEs {
		t.Errorf("PEs = %d, want %d", pes, a.TotalPEs)
	}
	// MLP is a reuse-1 pipeline: no SMBs under the steady-state rule.
	if smbs != 0 {
		t.Errorf("SMBs = %d, want 0 for MLP", smbs)
	}
	if clbs == 0 {
		t.Error("no CLBs for control")
	}
	if err := nl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildNetlistCNNHasBuffers(t *testing.T) {
	co, err := synth.Synthesize(models.LeNet(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 4)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := BuildNetlist(co, a, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	_, smbs, _ := nl.Counts()
	if smbs == 0 {
		t.Error("LeNet netlist has no SMBs despite weight reuse")
	}
	if err := nl.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBuildNetlistFaultedRejectsBufferedEdges: the buffered-edge argument
// is nil-only. A forced buffer on an edge the pipeline rule chains
// directly is an error, not an SMB.
func TestBuildNetlistFaultedRejectsBufferedEdges(t *testing.T) {
	g := chainGraph(1, 1)
	a, err := Allocate(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, edges := range []map[Edge]bool{{{From: 0, To: 1}: true}, {}} {
		if _, err := BuildNetlistFaulted(g, a, device.Params45nm, edges, nil, 0); err == nil {
			t.Errorf("BuildNetlistFaulted accepted buffered edges %v", edges)
		}
	}
	if _, err := BuildNetlistFaulted(g, a, device.Params45nm, nil, nil, 0); err != nil {
		t.Errorf("nil buffered edges: %v", err)
	}
}

func TestNetlistAreaBreakdown(t *testing.T) {
	nl := &netlist.Netlist{}
	p := nl.AddBlock(netlist.BlockPE, "pe", 0, 0)
	s := nl.AddBlock(netlist.BlockSMB, "smb", 0, 0)
	c := nl.AddBlock(netlist.BlockCLB, "clb", -1, 0)
	_ = p
	_ = s
	_ = c
	want := device.Params45nm.PETotal.AreaUM2 + device.Params45nm.SMB.AreaUM2 + device.Params45nm.CLB.AreaUM2
	if got := nl.AreaUM2(device.Params45nm); got != want {
		t.Errorf("AreaUM2 = %v, want %v", got, want)
	}
}
