package fpsa

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// countsDigest is an FNV-1a hash of raw output spike counts, sample by
// sample in order.
func countsDigest(outs [][]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, out := range outs {
		for _, v := range out {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestKernelChoiceOutputsPinned pins the spiking outputs of the three
// traffic shapes on which the spiking kernel used to make a choice that the
// inputs or the programming could change. The values were recorded at the
// last commit that chose (PR 22's parent, 2b7318d) by running this file
// there unmodified. On that commit (a) sent one of its two kernel calls and
// (b) 72 of its 144 — the MLP's first layer every time: noisy conductances,
// input density above 0.30 — to the dense cycle walk, and (c) built 112
// count-grouped drive units over its 32 items, both crossbars having been
// lifted out of the integer-lane walk by a stuck-high cell (counted there
// with a temporary counter in each branch; this package cannot see either).
// The one kernel that is left must reproduce all three bit for bit. Never
// re-record them to make a kernel change pass: see docs/INVARIANTS.md "The
// spiking kernel ≡ the dense oracle".
func TestKernelChoiceOutputsPinned(t *testing.T) {
	ctx := context.Background()
	engineOutputs := func(d *Deployment, mode ExecMode, batch [][]float64) ([][]int, EngineStats) {
		t.Helper()
		eng, err := d.NewEngine(ctx, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		outs := make([][]int, len(batch))
		for i, x := range batch {
			if outs[i], err = engineOutputs(ctx, eng, x); err != nil {
				t.Fatal(err)
			}
		}
		// The same samples again as one call, split over the idle
		// executors: whole-pass densities are what a batch kernel call sees.
		labels, err := eng.ClassifyBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		return append(outs, labels), eng.Stats()
	}

	d, train := deployBenchNet(t)
	batch := train.X[:64]

	t.Run("net noisy dense-input", func(t *testing.T) {
		sn := mustNet(t, d)
		sn.SetSeed(3)
		noisy, err := outputsBatch(sn, batch, ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countsDigest(noisy), uint64(0x3ae4d32a44a2e767); got != want {
			t.Errorf("noisy batch digest = %#x, want %#x", got, want)
		}
		// A SpikingNet keeps no kernel counters; that the variation draw
		// reached the outputs is what shows the noisy kernel ran.
		ref, err := outputsBatch(sn, batch, ModeReference)
		if err != nil {
			t.Fatal(err)
		}
		if countsDigest(ref) == countsDigest(noisy) {
			t.Error("noisy outputs equal the reference outputs: the pin is vacuous")
		}
	})

	t.Run("engine noisy dense-input", func(t *testing.T) {
		outs, st := engineOutputs(d, ModeSpikingNoisy, batch)
		if got, want := countsDigest(outs), uint64(0x3e320522fb9a5767); got != want {
			t.Errorf("engine digest = %#x, want %#x", got, want)
		}
		if st.SparseKernels == 0 || st.SpikeDensity == 0 {
			t.Errorf("%d spiking-kernel calls at density %.3f, want both > 0", st.SparseKernels, st.SpikeDensity)
		}
	})

	t.Run("engine spiking stuck-high repeated counts", func(t *testing.T) {
		// Fault seed 1 puts a stuck-high cell in each crossbar where it
		// lifts a walked column's drive over η, so both are exact-sum but
		// not lane-eligible and take the float walk; the inputs repeat
		// counts across rows, which is what grouping merged.
		fd, _ := deployBenchNet(t, withFaultModelNoRemap(0.05, 1))
		dim := len(batch[0])
		fill := func(even, odd float64) []float64 {
			x := make([]float64, dim)
			for i := range x {
				x[i] = even
				if i%2 == 1 {
					x[i] = odd
				}
			}
			return x
		}
		inputs := [][]float64{
			fill(1, 1), fill(0.5, 0.5), fill(1, 0.5), fill(0.25, 0.75), fill(0, 1),
			batch[0], batch[1], batch[2],
		}
		outs, st := engineOutputs(fd, ModeSpiking, inputs)
		if got, want := countsDigest(outs), uint64(0xfb99b3361eca68de); got != want {
			t.Errorf("engine digest = %#x, want %#x", got, want)
		}
		if st.SparseKernels == 0 || st.FaultedCells == 0 {
			t.Errorf("%d spiking-kernel calls on %d faulted cells, want both > 0", st.SparseKernels, st.FaultedCells)
		}
	})
}
