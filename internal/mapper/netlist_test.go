package mapper

import (
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

// BenchmarkBuildNetlistZoo builds the netlists of the whole zoo at
// duplication 16 — the front-end pass of the compile_zoo workload.
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
