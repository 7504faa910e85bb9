package place

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/synth"
)

// lenetNetlist builds the LeNet duplication-4 netlist through the mapper,
// optionally with fault residuals stamped on its PE blocks.
func lenetNetlist(t testing.TB, faults *device.FaultModel) *netlist.Netlist {
	t.Helper()
	co, err := synth.Synthesize(models.LeNet(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := mapper.Allocate(co, 4)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mapper.BuildNetlistFaulted(co, alloc, device.Params45nm, nil, faults, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// posHash is an FNV-1a hash of every block's site, in block order.
func posHash(p *Placement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range p.Pos {
		for i, v := range [2]int{s.X, s.Y} {
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestAnnealTrajectoryPinned pins the annealing trajectory — a function of
// (netlist, chip, seed) only — on three shapes × two seeds: a mapper-built
// netlist on its production chip, the same netlist with fault residuals
// (non-integer net weights, where the float summation order of a move's
// affected nets decides accept/reject), and a chip with three times the
// sites the blocks need (most moves relocate to a free site). The values
// were recorded at the commit before move evaluation was made incremental
// (PR 13's parent, bef6e5c) and must never be re-recorded to make a change
// to the annealer pass: see docs/INVARIANTS.md "Placement trajectory
// identity".
func TestAnnealTrajectoryPinned(t *testing.T) {
	clean := lenetNetlist(t, nil)
	faulted := lenetNetlist(t, &device.FaultModel{Rate: 0.02, Seed: 5})
	nonInteger := false
	for i := range faulted.Nets {
		if w := netWeight(faulted, &faulted.Nets[i]); w != math.Trunc(w) {
			nonInteger = true
		}
	}
	if !nonInteger {
		t.Fatal("faulted fixture has no non-integer net weight")
	}
	tight, err := fabric.SizeFor(len(clean.Blocks), 0, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := fabric.SizeFor(3*len(clean.Blocks), 0, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		stats              Stats
		initBits, costBits uint64
		pos                uint64
	}
	cases := []struct {
		name string
		nl   *netlist.Netlist
		chip fabric.Chip
		seed int64
		want pin
	}{
		{"clean/seed1", clean, tight, 1, pin{Stats{Temps: 105, Moves: 252105, Accepted: 113893}, 0x40e50a4000000000, 0x40c3f90000000000, 0xab44d2871813d70}},
		{"clean/seed2", clean, tight, 2, pin{Stats{Temps: 104, Moves: 249704, Accepted: 113744}, 0x40e4504000000000, 0x40c4320000000000, 0x37a2ca5aec35e847}},
		{"faulted/seed1", faulted, tight, 1, pin{Stats{Temps: 109, Moves: 261709, Accepted: 121646}, 0x40f3dac37344dcd2, 0x40d2b831dbea31dd, 0xe3784935d5936a1d}},
		{"faulted/seed2", faulted, tight, 2, pin{Stats{Temps: 109, Moves: 261709, Accepted: 120167}, 0x40f2ff2f1780c8d5, 0x40d2a0a805d2234d, 0xea9e774527059955}},
		{"roomy/seed1", clean, roomy, 1, pin{Stats{Temps: 106, Moves: 254506, Accepted: 111649}, 0x40eb1dc000000000, 0x40c4870000000000, 0xfee29b079609807a}},
		{"roomy/seed2", clean, roomy, 2, pin{Stats{Temps: 106, Moves: 254506, Accepted: 119805}, 0x40f274c000000000, 0x40c4330000000000, 0x91e38735aaf34091}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, st, err := Anneal(context.Background(), tc.nl, tc.chip, rand.New(rand.NewSource(tc.seed)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := pin{
				stats:    Stats{Temps: st.Temps, Moves: st.Moves, Accepted: st.Accepted},
				initBits: math.Float64bits(st.InitialCost),
				costBits: math.Float64bits(st.FinalCost),
				pos:      posHash(p),
			}
			if got != tc.want {
				t.Errorf("trajectory moved:\n got {Stats{Temps: %d, Moves: %d, Accepted: %d}, %#x, %#x, %#x}\nwant {Stats{Temps: %d, Moves: %d, Accepted: %d}, %#x, %#x, %#x}",
					got.stats.Temps, got.stats.Moves, got.stats.Accepted, got.initBits, got.costBits, got.pos,
					tc.want.stats.Temps, tc.want.stats.Moves, tc.want.stats.Accepted, tc.want.initBits, tc.want.costBits, tc.want.pos)
			}
		})
	}
}

// lenetAnnealer starts an annealing run of the LeNet netlist on its
// production chip.
func lenetAnnealer(t testing.TB, faults *device.FaultModel, seed int64) *annealer {
	t.Helper()
	nl := lenetNetlist(t, faults)
	chip, err := fabric.SizeFor(len(nl.Blocks), 0, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAnnealer(nl, chip, rand.New(rand.NewSource(seed)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnnealerCachedNetCostsStayExact: after any number of temperature
// steps every cached net cost equals a fresh float64(HPWL)·netWeight bit
// for bit — a move's before-sum reads stored products in place of
// recomputing them — and the placement stays legal.
func TestAnnealerCachedNetCostsStayExact(t *testing.T) {
	for name, faults := range map[string]*device.FaultModel{"clean": nil, "faulted": {Rate: 0.02, Seed: 5}} {
		a := lenetAnnealer(t, faults, 3)
		for !a.done {
			for i := range a.nl.Nets {
				net := &a.nl.Nets[i]
				if want := float64(netHPWL(a.p, net)) * netWeight(a.nl, net); a.netCost[i] != want {
					t.Fatalf("%s, %d temperatures in: net %d cached cost %v, recomputed %v", name, a.stats.Temps, i, a.netCost[i], want)
				}
			}
			if err := a.p.Validate(); err != nil {
				t.Fatalf("%s, %d temperatures in: %v", name, a.stats.Temps, err)
			}
			a.step()
		}
		if a.stats.Temps == 0 {
			t.Fatalf("%s: the run never stepped", name)
		}
	}
}

// TestAnnealStepDoesNotAllocate: once built, an annealer evaluates and
// applies moves out of its own scratch.
func TestAnnealStepDoesNotAllocate(t *testing.T) {
	a := lenetAnnealer(t, &device.FaultModel{Rate: 0.02, Seed: 5}, 1)
	a.step()
	allocs := testing.AllocsPerRun(10, a.step)
	if a.done {
		t.Fatal("the run ended inside the measurement; it measured no-op steps")
	}
	if allocs != 0 {
		t.Errorf("%v allocations per temperature step, want 0", allocs)
	}
}

// BenchmarkAnneal times whole single-seed annealing runs — one iteration
// builds the annealer and runs it to completion; ns/move is the figure to
// compare — on the LeNet duplication-4 netlist and on CIFAR-VGG17 at
// duplication 1, the 214-block design that is most of a compile_zoo round.
// Nothing stops or restarts the timer inside the loop: on go1.24 StartTimer
// resets the clock b.Loop measures -benchtime against, so a benchmark that
// calls it once per anneal never finishes under a time-based -benchtime.
func BenchmarkAnneal(b *testing.B) {
	lenet := lenetNetlist(b, nil)
	co, err := synth.Synthesize(models.CIFARVGG17(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := mapper.Allocate(co, 1)
	if err != nil {
		b.Fatal(err)
	}
	vgg17, err := mapper.BuildNetlist(co, alloc, device.Params45nm, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		nl   *netlist.Netlist
	}{{"LeNet@4", lenet}, {"CIFAR-VGG17@1", vgg17}} {
		b.Run(tc.name, func(b *testing.B) {
			chip, err := fabric.SizeFor(len(tc.nl.Blocks), 0, device.Params45nm)
			if err != nil {
				b.Fatal(err)
			}
			moves := 0
			b.ReportAllocs()
			for b.Loop() {
				a, err := newAnnealer(tc.nl, chip, rand.New(rand.NewSource(1)), Options{})
				if err != nil {
					b.Fatal(err)
				}
				a.run(context.Background(), -1)
				moves += a.stats.Moves
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
		})
	}
}
