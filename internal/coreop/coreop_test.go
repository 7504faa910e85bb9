package coreop

import (
	"strings"
	"testing"
)

func validGroup(name string, reuse int, deps ...int) *Group {
	return &Group{
		Layer: "l", Name: name, Rows: 8, Cols: 8,
		UsefulWeights: 64, Reuse: reuse, Deps: deps,
	}
}

func TestAddGroupAssignsIDs(t *testing.T) {
	g := &Graph{Name: "g"}
	a := g.AddGroup(validGroup("a", 1))
	b := g.AddGroup(validGroup("b", 2, a.ID))
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("IDs = %d, %d", a.ID, b.ID)
	}
	if g.MaxReuse() != 2 {
		t.Errorf("MaxReuse = %d", g.MaxReuse())
	}
	if g.TotalCoreOps() != 3 {
		t.Errorf("TotalCoreOps = %d", g.TotalCoreOps())
	}
}

func TestGroupsByKind(t *testing.T) {
	g := &Graph{}
	g.AddGroup(validGroup("a", 1))
	p := validGroup("p", 1)
	p.Kind = KindPool
	g.AddGroup(p)
	m := g.GroupsByKind()
	if m[KindCompute] != 1 || m[KindPool] != 1 {
		t.Errorf("kinds = %v", m)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCompute: "compute", KindReduce: "reduce",
		KindPool: "pool", KindElementwise: "elementwise",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind = %q", s)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"oversized footprint", func() *Graph {
			g := &Graph{}
			grp := validGroup("a", 1)
			grp.Rows = 300
			grp.UsefulWeights = 300 * 8
			g.AddGroup(grp)
			return g
		}},
		{"zero reuse", func() *Graph {
			g := &Graph{}
			g.AddGroup(validGroup("a", 0))
			return g
		}},
		{"forward dep", func() *Graph {
			g := &Graph{}
			g.AddGroup(validGroup("a", 1, 1))
			g.AddGroup(validGroup("b", 1))
			return g
		}},
		{"dep out of range", func() *Graph {
			g := &Graph{}
			g.AddGroup(validGroup("a", 1, 5))
			return g
		}},
		{"useful exceeds footprint", func() *Graph {
			g := &Graph{}
			grp := validGroup("a", 1)
			grp.UsefulWeights = 1000
			g.AddGroup(grp)
			return g
		}},
		{"weight shape mismatch", func() *Graph {
			g := &Graph{}
			grp := validGroup("a", 1)
			grp.Weights = [][]int{{1}}
			g.AddGroup(grp)
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build().Validate(256, 256); err == nil {
				t.Error("defect not caught")
			}
		})
	}
}

func TestValidateAcceptsGoodGraph(t *testing.T) {
	g := &Graph{}
	a := g.AddGroup(validGroup("a", 4))
	g.AddGroup(validGroup("b", 2, a.ID))
	if err := g.Validate(256, 256); err != nil {
		t.Error(err)
	}
}

func TestFootprint(t *testing.T) {
	grp := validGroup("a", 1)
	if grp.Footprint() != 64 {
		t.Errorf("Footprint = %d", grp.Footprint())
	}
}
