package cgraph

import (
	"strings"
	"testing"
)

func buildTiny(t *testing.T) (*Graph, *Node) {
	t.Helper()
	g := New("tiny")
	in, err := g.Input("in", Vec(16))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := g.Add("fc", FC{Out: 4}, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("relu", ReLU{}, fc); err != nil {
		t.Fatal(err)
	}
	return g, in
}

func TestGraphBuildAndStats(t *testing.T) {
	g, _ := buildTiny(t)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.TotalWeights(); got != 64 {
		t.Errorf("TotalWeights = %d", got)
	}
	if got := g.TotalOps(); got != 128 {
		t.Errorf("TotalOps = %d", got)
	}
	outs := g.Outputs()
	if len(outs) != 1 || outs[0].Name != "relu" {
		t.Errorf("Outputs = %v", outs)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGraphRejectsForeignNode(t *testing.T) {
	g, _ := buildTiny(t)
	other := New("other")
	foreign, err := other.Input("in", Vec(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("bad", ReLU{}, foreign); err == nil {
		t.Error("foreign input node accepted")
	}
	if _, err := g.Add("bad2", ReLU{}, nil); err == nil {
		t.Error("nil input accepted")
	}
}

func TestGraphAddPropagatesShapeErrors(t *testing.T) {
	g := New("g")
	in, err := g.Input("in", Shape{C: 50, H: 4, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Add("fc", FC{Out: 10}, in)
	if err == nil || !strings.Contains(err.Error(), "not flat") {
		t.Errorf("err = %v, want flatten hint", err)
	}
}

// TestConsumersCount checks the consumer counts Outputs reads: an input
// used twice by one node counts twice.
func TestConsumersCount(t *testing.T) {
	g := New("g")
	in, _ := g.Input("in", Vec(8))
	a, _ := g.Add("a", ReLU{}, in)
	if _, err := g.Add("b", ReLU{}, in); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("sum", Add{}, a, a); err != nil {
		t.Fatal(err)
	}
	if got := g.users[in.ID]; got != 2 {
		t.Errorf("consumers of in = %d, want 2", got)
	}
	if got := g.users[a.ID]; got != 2 {
		t.Errorf("consumers of a = %d, want 2 (used twice by add)", got)
	}
}

func TestValidateCatchesMutation(t *testing.T) {
	g, _ := buildTiny(t)
	g.Nodes()[1].OutShape = Vec(999)
	if err := g.Validate(); err == nil {
		t.Error("mutated shape passed validation")
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic on invalid op")
		}
	}()
	g := New("g")
	g.MustAdd("bad", FC{Out: 10}) // no inputs
}
