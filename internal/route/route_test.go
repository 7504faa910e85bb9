package route

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
)

// linePlacement places blocks left to right on a 1×n strip.
func linePlacement(t *testing.T, nl *netlist.Netlist, w, tracks int) (*place.Placement, fabric.Chip) {
	t.Helper()
	chip := fabric.Chip{W: w, H: 1, Tracks: tracks, Params: device.Params45nm}
	sites := make([]fabric.Site, len(nl.Blocks))
	for b := range sites {
		sites[b] = fabric.Site{X: b, Y: 0}
	}
	p, err := place.Fixed(nl, chip, sites)
	if err != nil {
		t.Fatal(err)
	}
	return p, chip
}

func TestRouteTwoBlockNet(t *testing.T) {
	nl := &netlist.Netlist{}
	a := nl.AddBlock(netlist.BlockPE, "a", 0, 0)
	b := nl.AddBlock(netlist.BlockPE, "b", 1, 0)
	nl.AddNet(a, []int{b}, 1)
	p, chip := linePlacement(t, nl, 2, 8)
	res, err := Route(context.Background(), nl, p, chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("trivial net did not converge")
	}
	if res.NetHops[0] < 1 || res.NetHops[0] > 3 {
		t.Errorf("adjacent-block hops = %d, want 1..3", res.NetHops[0])
	}
}

func TestRouteCongestionNegotiation(t *testing.T) {
	// Many wide nets crossing one narrow strip force negotiation; with
	// enough tracks the router must converge, and occupancy must never
	// exceed capacity afterwards.
	nl := &netlist.Netlist{}
	const pairs = 4
	for i := 0; i < 2*pairs; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	for i := 0; i < pairs; i++ {
		nl.AddNet(i, []int{2*pairs - 1 - i}, 3)
	}
	chip := fabric.Chip{W: 4, H: 2, Tracks: 12, Params: device.Params45nm}
	rng := rand.New(rand.NewSource(5))
	p, err := place.Random(nl, chip, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(context.Background(), nl, p, chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: overused=%d maxOcc=%d", res.Overused, res.MaxOccupancy)
	}
	if res.MaxOccupancy > chip.Tracks {
		t.Errorf("MaxOccupancy %d exceeds tracks %d after convergence", res.MaxOccupancy, chip.Tracks)
	}
}

func TestRouteReportsNeededWidth(t *testing.T) {
	// With tracks=1 and two 1-signal nets over the same corridor the
	// router cannot converge; MaxOccupancy then reports the width that
	// would have been needed.
	nl := &netlist.Netlist{}
	a := nl.AddBlock(netlist.BlockPE, "a", 0, 0)
	b := nl.AddBlock(netlist.BlockPE, "b", 1, 0)
	nl.AddNet(a, []int{b}, 4)
	p, chip := linePlacement(t, nl, 2, 1)
	res, err := Route(context.Background(), nl, p, chip, Options{MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("4-signal net on 1-track fabric converged")
	}
	if res.MaxOccupancy < 4 {
		t.Errorf("MaxOccupancy = %d, want ≥4", res.MaxOccupancy)
	}
}

func TestRouteMultiSinkTree(t *testing.T) {
	nl := &netlist.Netlist{}
	src := nl.AddBlock(netlist.BlockPE, "src", 0, 0)
	var sinks []int
	for i := 0; i < 3; i++ {
		sinks = append(sinks, nl.AddBlock(netlist.BlockPE, "sink", i+1, 0))
	}
	nl.AddNet(src, sinks, 2)
	chip := fabric.Chip{W: 2, H: 2, Tracks: 16, Params: device.Params45nm}
	rng := rand.New(rand.NewSource(13))
	p, err := place.Random(nl, chip, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(context.Background(), nl, p, chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("multi-sink net did not converge")
	}
	// The tree must be no larger than 3 disjoint point-to-point routes.
	if len(res.NetRoutes[0]) > 3*8 {
		t.Errorf("route tree size %d suspiciously large", len(res.NetRoutes[0]))
	}
}

func TestRouteAnnealedLeNetClassNetlist(t *testing.T) {
	// An end-to-end smoke test at realistic shape: 60 blocks, mixed
	// fan-out, annealed placement, must converge on the default fabric.
	rng := rand.New(rand.NewSource(17))
	nl := &netlist.Netlist{}
	for i := 0; i < 60; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	for i := 0; i < 50; i++ {
		src := rng.Intn(60)
		var sinks []int
		for len(sinks) < 1+rng.Intn(3) {
			s := rng.Intn(60)
			if s != src {
				sinks = append(sinks, s)
			}
		}
		nl.AddNet(src, sinks, 1+rng.Intn(64))
	}
	chip, err := fabric.SizeFor(60, fabric.DefaultTracks, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := place.Anneal(context.Background(), nl, chip, rng, place.Options{MovesPerTemp: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(context.Background(), nl, p, chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("realistic netlist did not converge (overused %d)", res.Overused)
	}
	if res.MeanHops() <= 0 {
		t.Error("mean hops not positive")
	}
	// Routed hops must track the placement's estimate — the net's longest
	// Manhattan source→sink span, plus one — within 3×.
	for i, h := range res.NetHops {
		net := &nl.Nets[i]
		s := p.Pos[net.Src]
		est := 0
		for _, b := range net.Sinks {
			q := p.Pos[b]
			est = max(est, abs(q.X-s.X)+abs(q.Y-s.Y)+1)
		}
		if h > 3*est+4 {
			t.Errorf("net %d: routed hops %d ≫ estimate %d", i, h, est)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRouteDeterministicAcrossWorkers(t *testing.T) {
	// The same placement must route bit-identically for every worker
	// count and on repeated runs — the deployment cache and the parallel
	// router's contract both depend on it.
	rng := rand.New(rand.NewSource(23))
	nl := &netlist.Netlist{}
	for i := 0; i < 40; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	for i := 0; i < 36; i++ {
		src := rng.Intn(40)
		var sinks []int
		for len(sinks) < 1+rng.Intn(3) {
			s := rng.Intn(40)
			if s != src {
				sinks = append(sinks, s)
			}
		}
		nl.AddNet(src, sinks, 1+rng.Intn(8))
	}
	chip := fabric.Chip{W: 7, H: 7, Tracks: 24, Params: device.Params45nm}
	p, err := place.Random(nl, chip, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 1, 2, 4, 8} {
		res, err := Route(context.Background(), nl, p, chip, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Converged != ref.Converged || res.Iterations != ref.Iterations ||
			res.MaxOccupancy != ref.MaxOccupancy || res.Overused != ref.Overused {
			t.Fatalf("workers=%d summary %+v differs from workers=1", workers, res)
		}
		for ni := range nl.Nets {
			if len(res.NetRoutes[ni]) != len(ref.NetRoutes[ni]) || res.NetHops[ni] != ref.NetHops[ni] {
				t.Fatalf("workers=%d net %d tree differs", workers, ni)
			}
			for j, n := range res.NetRoutes[ni] {
				if n != ref.NetRoutes[ni][j] {
					t.Fatalf("workers=%d net %d node %d: %d vs %d", workers, ni, j, n, ref.NetRoutes[ni][j])
				}
			}
			for j, e := range res.NetEdges[ni] {
				if e != ref.NetEdges[ni][j] {
					t.Fatalf("workers=%d net %d edge %d differs", workers, ni, j)
				}
			}
		}
	}
}

// TestRouteCancelled: a cancelled context aborts routing with ctx.Err(),
// for any worker count.
func TestRouteCancelled(t *testing.T) {
	nl := &netlist.Netlist{}
	blocks := make([]int, 6)
	for i := range blocks {
		blocks[i] = nl.AddBlock(netlist.BlockPE, "b", 0, 0)
	}
	for i := 1; i < len(blocks); i++ {
		nl.AddNet(blocks[i-1], []int{blocks[i]}, 1)
	}
	p, chip := linePlacement(t, nl, len(blocks), 8)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Route(ctx, nl, p, chip, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: %v, want context.Canceled", workers, err)
		}
	}
}
