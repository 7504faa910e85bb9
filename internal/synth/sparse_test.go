package synth

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fpsa/internal/xbar"
)

// densityInputs draws b input vectors whose expected spike density (mean
// count / window) is roughly d, mixing silent elements with active ones
// the way thresholded activations do.
func densityInputs(rng *rand.Rand, b, n, window int, d float64) [][]int {
	ins := make([][]int, b)
	for i := range ins {
		x := make([]int, n)
		if d >= 1 {
			for k := range x {
				x[k] = window
			}
		} else if d > 0 {
			for k := range x {
				if rng.Float64() < 0.5 {
					continue
				}
				c := int(2 * d * float64(window) * rng.Float64() * 2)
				if c > window {
					c = window
				}
				x[k] = c
			}
		}
		ins[i] = x
	}
	return ins
}

// sparseModes enumerates the three execution modes as fresh RunOptions
// factories, with identical noisy seeds so every executor programs the same
// conductances.
func sparseModes() map[string]func() RunOptions {
	return map[string]func() RunOptions{
		"reference": func() RunOptions { return RunOptions{Mode: ModeReference} },
		"spiking":   func() RunOptions { return RunOptions{Mode: ModeSpiking} },
		"noisy": func() RunOptions {
			return RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(1741))}
		},
	}
}

// denseOracle returns opts for the oracle executor: the same programming,
// with every spiking stage run by the paper's PE item by item
// (xbar.SimulateCountsBatchDense) instead of the kernel. The field is
// unexported, so nothing outside this package's tests can build one.
func denseOracle(opts RunOptions) RunOptions {
	opts.spikeKernel = (*xbar.Crossbar).SimulateCountsBatchDense
	return opts
}

// TestSparseMatchesDenseProperty is the end-to-end bit-exactness property:
// for random programs and inputs at densities from 0 to 1, the production
// executor produces the oracle executor's outputs in all three execution
// modes, on a single chip and on 2- and 4-chip pipelines — and never makes
// an oracle call itself.
func TestSparseMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	g, ws := buildTestMLP(rng, []int{20, 14, 10, 8, 6})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stages) < 4 {
		t.Fatalf("test MLP has %d stages, need ≥4 for a 4-chip cut", len(prog.Stages))
	}
	window := opts.Params.SamplingWindow()
	for _, d := range []float64{0, 0.03, 0.1, 0.4, 1.0} {
		inputs := densityInputs(rng, 5, 20, window, d)
		for mode, mkOpts := range sparseModes() {
			spiking := mode != "reference"
			oracle, err := NewExecutor(prog, denseOracle(mkOpts()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if st := oracle.KernelStats(); st.SparseBatches != 0 || (st.DenseBatches == 0) == spiking {
				t.Fatalf("d=%g %s: oracle executor ran %d kernel / %d oracle batches", d, mode, st.SparseBatches, st.DenseBatches)
			}
			for _, chips := range []int{1, 2, 4} {
				ex := pipelineAt(t, prog, chips, mkOpts())
				got, err := ex.RunBatch(inputs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutputs(t, fmt.Sprintf("d=%g/%s/%d-chip", d, mode, chips), want, got)
				if st := ex.KernelStats(); st.DenseBatches != 0 || (st.SparseBatches == 0) == spiking {
					t.Fatalf("d=%g %s on %d chips: executor ran %d kernel / %d oracle batches", d, mode, chips, st.SparseBatches, st.DenseBatches)
				}
				if err := ex.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// assertSameOutputs requires positionally identical batch outputs.
func assertSameOutputs(t *testing.T, label string, want, got [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for b := range want {
		for j := range want[b] {
			if got[b][j] != want[b][j] {
				t.Fatalf("%s: item %d out[%d]: got %d, want %d", label, b, j, got[b][j], want[b][j])
			}
		}
	}
}

// TestSparseDegenerateInputs covers the degenerate windows at the program
// level: the all-zero batch, the all-ones (full-window) batch, and a
// single-item batch, kernel against oracle.
func TestSparseDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	g, ws := buildTestMLP(rng, []int{12, 8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	zero := make([]int, 12)
	full := make([]int, 12)
	for i := range full {
		full[i] = window
	}
	cases := map[string][][]int{
		"all-zero":    {zero, zero},
		"all-ones":    {full, full, full},
		"single-item": {randomInput(rng, 12, window)},
		"mixed":       {zero, full, randomInput(rng, 12, window)},
	}
	for name, inputs := range cases {
		dense, err := NewExecutor(prog, denseOracle(RunOptions{Mode: ModeSpiking}))
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewExecutor(prog, RunOptions{Mode: ModeSpiking})
		if err != nil {
			t.Fatal(err)
		}
		want, err := dense.RunBatch(inputs)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		got, err := sparse.RunBatch(inputs)
		if err != nil {
			t.Fatalf("%s: sparse: %v", name, err)
		}
		assertSameOutputs(t, name, want, got)
	}
}

// TestSparsePipelineRaceStress drives concurrent micro-batches through a
// sharded pipeline while another goroutine polls KernelStats — the exact
// overlap the serving engine produces. Run with -race this pins the
// atomicity of the kernel counters and the single-writer discipline of the
// kernel's scratch buffers.
func TestSparsePipelineRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	g, ws := buildTestMLP(rng, []int{16, 12, 8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe := pipelineAt(t, prog, 4, RunOptions{Mode: ModeSpiking})
	defer pe.Close()
	window := opts.Params.SamplingWindow()

	const workers, rounds = 4, 8
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = pe.KernelStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(700 + int64(w)))
			for r := 0; r < rounds; r++ {
				d := []float64{0.02, 0.2, 1.0}[r%3]
				inputs := densityInputs(wrng, 3, 16, window, d)
				first, err := pe.RunBatch(inputs)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// The same batch again must be deterministic even while
				// other workers interleave their jobs.
				again, err := pe.RunBatch(inputs)
				if err != nil {
					t.Errorf("worker %d: rerun: %v", w, err)
					return
				}
				for b := range first {
					for j := range first[b] {
						if first[b][j] != again[b][j] {
							t.Errorf("worker %d: nondeterministic out[%d][%d]: %d then %d",
								w, b, j, first[b][j], again[b][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	if st := pe.KernelStats(); st.SparseBatches == 0 {
		t.Error("race stress ran no kernel batches")
	}
}
