package shard

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestPartitionSingleChip: one chip is the whole chain, no cuts.
func TestPartitionSingleChip(t *testing.T) {
	p, err := Partition([]int{3, 1, 2}, nil, nil, Options{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Chips(); got != 1 {
		t.Fatalf("Chips = %d, want 1", got)
	}
	if !reflect.DeepEqual(p.Bounds, []int{0, 3}) {
		t.Fatalf("Bounds = %v", p.Bounds)
	}
	if totalCut(p) != 0 {
		t.Fatalf("single chip reports cut traffic %v", p.CutTraffic)
	}
	if slices.Max(p.Loads) != 6 {
		t.Fatalf("max load = %d, want 6", slices.Max(p.Loads))
	}
}

// TestPartitionMinCutPicksCheapestCut: with one wide and one narrow
// dependency, the 2-way min-cut must fall on the narrow boundary.
func TestPartitionMinCutPicksCheapestCut(t *testing.T) {
	// Chain 0→1 wide (100 signals), 1→2 narrow (3 signals).
	signals := []Signal{
		{Prod: 0, Last: 1, Width: 100},
		{Prod: 1, Last: 2, Width: 3},
	}
	p, err := Partition([]int{1, 1, 1}, signals, nil, Options{Chips: 2, Policy: PolicyMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Bounds, []int{0, 2, 3}) {
		t.Fatalf("Bounds = %v, want cut at 2 (narrow edge)", p.Bounds)
	}
	if !reflect.DeepEqual(p.CutTraffic, []int{3}) {
		t.Fatalf("CutTraffic = %v, want [3]", p.CutTraffic)
	}
}

// TestPartitionSignalChargedPerLink: a signal alive across multiple cuts
// is charged on every link it traverses.
func TestPartitionSignalChargedPerLink(t *testing.T) {
	// One signal produced at 0 and last used at 3 crosses both cuts of a
	// 3-way partition.
	signals := []Signal{{Prod: 0, Last: 3, Width: 5}}
	p, err := Partition([]int{1, 1, 1, 1}, signals, nil, Options{Chips: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := totalCut(p); got != 10 {
		t.Fatalf("total cut traffic = %d, want 10 (5 over each of 2 links)", got)
	}
}

// TestPartitionBalanced: the balanced policy equalizes loads even when a
// lopsided cut would carry less traffic.
func TestPartitionBalanced(t *testing.T) {
	weights := []int{4, 4, 4, 4}
	// Make the lopsided cut (after item 0) traffic-free and the balanced
	// cut expensive: min-cut would pick bounds {0,1,4}.
	signals := []Signal{{Prod: 1, Last: 2, Width: 50}}
	minp, err := Partition(weights, signals, nil, Options{Chips: 2, Policy: PolicyMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(minp.Loads) != 12 {
		t.Fatalf("mincut max load = %d, want 12 (lopsided)", slices.Max(minp.Loads))
	}
	balp, err := Partition(weights, signals, nil, Options{Chips: 2, Policy: PolicyBalanced})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(balp.Loads) != 8 {
		t.Fatalf("balanced max load = %d, want 8", slices.Max(balp.Loads))
	}
	if !reflect.DeepEqual(balp.Bounds, []int{0, 2, 4}) {
		t.Fatalf("balanced Bounds = %v", balp.Bounds)
	}
}

// TestPartitionCapacity: capacity forces more, smaller segments and is an
// error when infeasible at the requested chip count.
func TestPartitionCapacity(t *testing.T) {
	weights := []int{3, 3, 3, 3}
	if _, err := Partition(weights, nil, nil, Options{Chips: 2, Capacity: 5}); err == nil {
		t.Fatal("capacity 5 with 2 chips accepted; segments of 6 exceed it")
	}
	p, err := Partition(weights, nil, nil, Options{Chips: 4, Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	for s, l := range p.Loads {
		if l > 3 {
			t.Fatalf("segment %d load %d exceeds capacity", s, l)
		}
	}
}

// TestPartitionIllegalCuts: forbidden positions are never used, and a
// fully pinned chain cannot be cut.
func TestPartitionIllegalCuts(t *testing.T) {
	weights := []int{1, 1, 1, 1}
	illegal := []bool{false, false, true, false, false} // no cut between 1 and 2
	p, err := Partition(weights, nil, illegal, Options{Chips: 2, Policy: PolicyBalanced})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bounds[1] == 2 {
		t.Fatalf("illegal cut position used: %v", p.Bounds)
	}
	all := []bool{false, true, true, true, false}
	if _, err := Partition(weights, nil, all, Options{Chips: 2}); err == nil {
		t.Fatal("fully pinned chain was cut")
	}
}

// TestPartitionShardOf: item→segment lookup matches the bounds.
func TestPartitionShardOf(t *testing.T) {
	p, err := Partition([]int{1, 1, 1, 1, 1, 1}, nil, nil, Options{Chips: 3, Policy: PolicyBalanced})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s := p.ShardOf(i)
		if i < p.Bounds[s] || i >= p.Bounds[s+1] {
			t.Fatalf("ShardOf(%d) = %d, bounds %v", i, s, p.Bounds)
		}
	}
}

// TestPartitionDeterministic: repeated runs on a randomized chain agree
// exactly.
func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 60
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1 + rng.Intn(5)
	}
	var signals []Signal
	for i := 0; i < n-1; i++ {
		last := i + 1 + rng.Intn(n-i-1)
		signals = append(signals, Signal{Prod: i, Last: last, Width: 1 + rng.Intn(40)})
	}
	for _, pol := range []Policy{PolicyMinCut, PolicyBalanced} {
		first, err := Partition(weights, signals, nil, Options{Chips: 4, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			again, err := Partition(weights, signals, nil, Options{Chips: 4, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("policy %d: plans differ: %+v vs %+v", pol, first, again)
			}
		}
	}
}

// TestPartitionMinCutOptimal: brute-force every 3-way partition of a
// random chain and require the DP to match the optimum.
func TestPartitionMinCutOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 9
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	var signals []Signal
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				signals = append(signals, Signal{Prod: i, Last: j, Width: 1 + rng.Intn(9)})
			}
		}
	}
	trafficAt := func(c int) int {
		total := 0
		for _, s := range signals {
			if s.Prod < c && c <= s.Last {
				total += s.Width
			}
		}
		return total
	}
	best := int(^uint(0) >> 1)
	for a := 1; a < n-1; a++ {
		for b := a + 1; b < n; b++ {
			if v := trafficAt(a) + trafficAt(b); v < best {
				best = v
			}
		}
	}
	p, err := Partition(weights, signals, nil, Options{Chips: 3, Policy: PolicyMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if got := totalCut(p); got != best {
		t.Fatalf("DP traffic %d, brute-force optimum %d", got, best)
	}
}

// TestPartitionErrors: invalid inputs are rejected with errors, not
// panics.
func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(nil, nil, nil, Options{Chips: 1}); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := Partition([]int{1}, nil, nil, Options{Chips: 0}); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := Partition([]int{1, 1}, nil, nil, Options{Chips: 3}); err == nil {
		t.Error("more chips than items accepted")
	}
	if _, err := Partition([]int{1, -1}, nil, nil, Options{Chips: 1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Partition([]int{1, 1}, []Signal{{Prod: 5, Last: 6, Width: 1}}, nil, Options{Chips: 1}); err == nil {
		t.Error("out-of-range signal accepted")
	}
	if _, err := Partition([]int{1, 1}, nil, []bool{false}, Options{Chips: 1}); err == nil {
		t.Error("mis-sized illegal mask accepted")
	}
}

// TestLinkTransfer: the link model charges latency plus bandwidth time,
// nothing for empty transfers, and fills zero fields with defaults.
func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyNS: 10, BandwidthBitsPerNS: 2, SignalBits: 6}
	if got := l.TransferNS(0); got != 0 {
		t.Errorf("TransferNS(0) = %g, want 0", got)
	}
	if got, want := l.TransferNS(4), 10+float64(4*6)/2; got != want {
		t.Errorf("TransferNS(4) = %g, want %g", got, want)
	}
	var zero Link
	if got, want := zero.TransferNS(1), DefaultLink().TransferNS(1); got != want {
		t.Errorf("zero-value link TransferNS = %g, want default %g", got, want)
	}
	if zero.TransferNS(1) <= DefaultLink().LatencyNS {
		t.Error("default transfer should exceed fixed latency")
	}
}

// totalCut sums the traffic over every inter-chip link of p.
func totalCut(p *Plan) int {
	total := 0
	for _, t := range p.CutTraffic {
		total += t
	}
	return total
}
