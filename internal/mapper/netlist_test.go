package mapper

import (
	"fmt"
	"reflect"
	"testing"

	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/synth"
)

// referenceChainSinks is the direct-chaining construction BuildNetlist
// used before it emitted sinks from a reused buffer: pair c of max(du, dv)
// joins source copy c%du to sink copy c%dv, collected per source copy in
// a map and de-duplicated keeping first occurrences. It stays here as the
// oracle for the loop that replaced it.
func referenceChainSinks(du, dv int, sinkIDs []int) [][]int {
	pairs := du
	if dv > pairs {
		pairs = dv
	}
	sinksOf := make(map[int][]int)
	for c := 0; c < pairs; c++ {
		sinksOf[c%du] = append(sinksOf[c%du], sinkIDs[c%dv])
	}
	out := make([][]int, du)
	for c := range out {
		seen := make(map[int]bool)
		for _, x := range sinksOf[c] {
			if !seen[x] {
				seen[x] = true
				out[c] = append(out[c], x)
			}
		}
	}
	return out
}

func TestBuildNetlistDirectChainMatchesReference(t *testing.T) {
	for du := 1; du <= 8; du++ {
		for dv := 1; dv <= 8; dv++ {
			g := chainGraph(du, dv)
			a := Allocation{ModelDup: 8, Dup: []int{du, dv}, Iterations: []int{1, 1}, TotalPEs: du + dv}
			nl, err := BuildNetlist(g, a, device.Params45nm, nil)
			if err != nil {
				t.Fatalf("du=%d dv=%d: %v", du, dv, err)
			}
			// Blocks 0..du−1 are the producer's copies, du..du+dv−1 the
			// consumer's; the chain nets come first, one per producer copy.
			sinkIDs := make([]int, dv)
			for c := range sinkIDs {
				sinkIDs[c] = du + c
			}
			want := referenceChainSinks(du, dv, sinkIDs)
			if len(nl.Nets) != du+len(g.Groups) {
				t.Fatalf("du=%d dv=%d: %d nets, want %d chain + %d control", du, dv, len(nl.Nets), du, len(g.Groups))
			}
			for c := 0; c < du; c++ {
				net := nl.Nets[c]
				if net.Src != c || !reflect.DeepEqual(net.Sinks, want[c]) || net.Signals != g.Groups[0].Cols {
					t.Errorf("du=%d dv=%d copy %d: net %+v, want src %d sinks %v", du, dv, c, net, c, want[c])
				}
			}
		}
	}
}

// zooCoreOps synthesizes the seven benchmark models.
func zooCoreOps(t testing.TB) []*coreop.Graph {
	t.Helper()
	var out []*coreop.Graph
	for _, m := range models.All() {
		co, err := synth.Synthesize(m, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, co)
	}
	return out
}

func TestBuildNetlistControllerMemoExact(t *testing.T) {
	p := device.Params45nm
	for _, co := range zooCoreOps(t) {
		for _, dup := range []int{1, 16} {
			a, err := Allocate(co, dup)
			if err != nil {
				t.Fatal(err)
			}
			got, err := groupControllerLUTs(p, p.SamplingWindow(), a.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			for gi, it := range a.Iterations {
				want, err := controllerLUTs(p, p.SamplingWindow(), it)
				if err != nil {
					t.Fatal(err)
				}
				if got[gi] != want {
					t.Fatalf("%s dup %d group %d (%d iterations): memoised %d LUTs, synthesized %d",
						co.Name, dup, gi, it, got[gi], want)
				}
			}
		}
	}
}

// subChain extracts groups [lo, hi) as a graph of their own, dependencies
// from outside the range dropped — what a chip of a sharded deployment
// hosts — with its slice of the allocation.
func subChain(g *coreop.Graph, a Allocation, lo, hi int) (*coreop.Graph, Allocation) {
	sub := &coreop.Graph{Name: g.Name}
	for _, grp := range g.Groups[lo:hi] {
		c := *grp
		c.Deps = nil
		for _, dep := range grp.Deps {
			if dep >= lo {
				c.Deps = append(c.Deps, dep-lo)
			}
		}
		sub.AddGroup(&c)
	}
	pes := 0
	for _, dup := range a.Dup[lo:hi] {
		pes += dup
	}
	return sub, Allocation{ModelDup: a.ModelDup, Dup: a.Dup[lo:hi], Iterations: a.Iterations[lo:hi], TotalPEs: pes}
}

// TestCountBlocksMatchesNetlist: CountBlocks is the inventory of the
// netlist BuildNetlist emits — on every zoo model under uniform and
// per-layer duplication, under the pipeline rule, an explicit buffered-edge
// set and an empty one, and on the sub-graphs of a 2- and a 3-chip split.
func TestCountBlocksMatchesNetlist(t *testing.T) {
	p := device.Params45nm
	check := func(label string, g *coreop.Graph, a Allocation, edges map[Edge]bool) {
		t.Helper()
		pes, smbs, clbs, err := CountBlocks(g, a, p, edges)
		if err != nil {
			t.Fatalf("%s: CountBlocks: %v", label, err)
		}
		nl, err := BuildNetlist(g, a, p, edges)
		if err != nil {
			t.Fatalf("%s: BuildNetlist: %v", label, err)
		}
		if wp, ws, wc := nl.Counts(); pes != wp || smbs != ws || clbs != wc {
			t.Errorf("%s: counted %d PEs, %d SMBs, %d CLBs; netlist has %d, %d, %d", label, pes, smbs, clbs, wp, ws, wc)
		}
	}
	for _, co := range zooCoreOps(t) {
		n := len(co.Groups)
		// Every other edge buffered, whatever the iteration counts say.
		alternate := make(map[Edge]bool)
		for vi, grp := range co.Groups {
			for _, ui := range grp.Deps {
				alternate[Edge{From: ui, To: vi}] = (ui+vi)%2 == 0
			}
		}
		layerDup := make(map[string]int)
		for gi, grp := range co.Groups {
			if gi%3 == 0 {
				layerDup[grp.Layer] = 1 + gi%5
			}
		}
		var allocs []Allocation
		for _, dup := range []int{1, 2, 4, 16, 64} {
			if a, err := Allocate(co, dup); err == nil {
				allocs = append(allocs, a)
			}
		}
		perLayer, err := AllocateAssigned(co, 4, layerDup)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, perLayer)
		if len(allocs) < 2 {
			t.Fatalf("%s: the mapper rejected every uniform duplication", co.Name)
		}
		for ai, a := range allocs {
			label := fmt.Sprintf("%s alloc %d (dup %d)", co.Name, ai, a.ModelDup)
			check(label, co, a, nil)
			check(label+" alternate edges buffered", co, a, alternate)
			check(label+" no edge buffered", co, a, map[Edge]bool{})
			for _, chips := range []int{2, 3} {
				if n < chips {
					continue
				}
				for k := 0; k < chips; k++ {
					sub, sa := subChain(co, a, k*n/chips, (k+1)*n/chips)
					check(fmt.Sprintf("%s chip %d of %d", label, k, chips), sub, sa, nil)
				}
			}
		}
	}
}

// TestBuildNetlistRejectsWrongCount: the build checks what it emitted
// against the size it was handed, so a count that drifts from the build
// cannot go unnoticed — whichever figure is off.
func TestBuildNetlistRejectsWrongCount(t *testing.T) {
	p := device.Params45nm
	co, err := synth.Synthesize(models.LeNet(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sizeNetlist(co, a, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emitNetlist(co, a, p, nil, nil, 0, want); err != nil {
		t.Fatalf("true count rejected: %v", err)
	}
	for name, doctor := range map[string]func(*netlistSize){
		"one PE more":   func(sz *netlistSize) { sz.pes++ },
		"one SMB fewer": func(sz *netlistSize) { sz.smbs-- },
		"one CLB more":  func(sz *netlistSize) { sz.clbs++ },
		"one net fewer": func(sz *netlistSize) { sz.nets-- },
		"one sink more": func(sz *netlistSize) { sz.sinks++ },
	} {
		doctored := want
		doctor(&doctored)
		if _, err := emitNetlist(co, a, p, nil, nil, 0, doctored); err == nil {
			t.Errorf("%s: build accepted a count it did not emit", name)
		}
	}
	if _, _, _, err := CountBlocks(co, Allocation{Dup: a.Dup[1:], Iterations: a.Iterations[1:]}, p, nil); err == nil {
		t.Error("CountBlocks accepted an allocation shorter than the graph")
	}
}

// BenchmarkBuildNetlistZoo builds the netlists of the whole zoo at
// duplication 16 — 7 netlists, 0.6 M nets. What it allocates is the three
// tables per netlist and one string per block name.
func BenchmarkBuildNetlistZoo(b *testing.B) {
	zoo := zooCoreOps(b)
	allocs := make([]Allocation, len(zoo))
	for i, co := range zoo {
		var err error
		if allocs[i], err = Allocate(co, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, co := range zoo {
			if _, err := BuildNetlist(co, allocs[i], device.Params45nm, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
