package synth

import (
	"math/rand"
	"sync"
	"testing"

	"fpsa/internal/device"
)

// faultTestProgram compiles the standard little MLP the fault properties
// run on, plus a batch of quantized inputs.
func faultTestProgram(t *testing.T) (*Program, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(601))
	g, ws := buildTestMLP(rng, []int{20, 14, 10, 8, 6})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog, batchInputs(rng, 6, 20, opts.Params.SamplingWindow())
}

// runFaulted executes the batch once under the given options on a fresh
// executor and returns the outputs and the residual faulted-cell count.
func runFaulted(t *testing.T, prog *Program, opts RunOptions, inputs [][]int) ([][]int, int) {
	t.Helper()
	ex, err := NewExecutor(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out, ex.FaultedCells()
}

// TestFaultsZeroRateBitIdentical pins the zero-rate-equivalence
// invariant: a nil fault model, an all-zero model, and a zero-rate model
// with remap enabled are bit-identical to each other across all three
// execution modes. The masked-weights fault construction guarantees this —
// an empty mask changes no weight and draws nothing from any RNG stream.
func TestFaultsZeroRateBitIdentical(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	for mode, mkOpts := range pipelineModes() {
		want, _ := runFaulted(t, prog, mkOpts(), inputs)
		for name, fm := range map[string]*device.FaultModel{
			"zero-value": {},
			"zero-rate":  {Rate: 0, Seed: 42, Remap: true},
		} {
			opts := mkOpts()
			opts.Faults = fm
			got, cells := runFaulted(t, prog, opts, inputs)
			if cells != 0 {
				t.Fatalf("%s/%s: %d faulted cells from an inactive model", mode, name, cells)
			}
			assertSameOutputs(t, mode+"/"+name, want, got)
		}
	}
}

// TestFaultsDeterministicSameSeed: the same fault model on two fresh
// executors programs identical faulted hardware — identical outputs and
// identical residual counts — in every mode.
func TestFaultsDeterministicSameSeed(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	fm := func() *device.FaultModel {
		return &device.FaultModel{Rate: 0.03, Seed: 11, Drift: 0.05, ReadSigma: 1e-7, Remap: true}
	}
	for mode, mkOpts := range pipelineModes() {
		a := mkOpts()
		a.Faults = fm()
		b := mkOpts()
		b.Faults = fm()
		outA, cellsA := runFaulted(t, prog, a, inputs)
		outB, cellsB := runFaulted(t, prog, b, inputs)
		if cellsA != cellsB {
			t.Fatalf("%s: faulted cells %d vs %d from the same seed", mode, cellsA, cellsB)
		}
		assertSameOutputs(t, mode+"/same-seed", outA, outB)
	}
}

// TestFaultsDenseVsPackedBitIdentical: with an active fault model — stuck
// cells, drift and read variation together — the kernel still agrees with
// its dense oracle bit for bit. Drift makes column sums non-integer, so
// this exercises the float walk under faults.
func TestFaultsDenseVsPackedBitIdentical(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	fm := &device.FaultModel{Rate: 0.05, Seed: 5, Drift: 0.08, ReadSigma: 2e-7, Remap: false}
	for mode, mkOpts := range pipelineModes() {
		dense := denseOracle(mkOpts())
		dense.Faults = fm
		sparse := mkOpts()
		sparse.Faults = fm
		outD, cellsD := runFaulted(t, prog, dense, inputs)
		outS, cellsS := runFaulted(t, prog, sparse, inputs)
		if cellsD == 0 {
			t.Fatalf("%s: unremapped 5%% fault rate left no faulted cells", mode)
		}
		if cellsD != cellsS {
			t.Fatalf("%s: oracle sees %d faulted cells, kernel %d", mode, cellsD, cellsS)
		}
		assertSameOutputs(t, mode+"/oracle-vs-kernel", outD, outS)
	}
}

// TestFaultsPipelineMatchesExecutor: fault maps key on the global group
// ID, not the owning chip or replica, so a faulted program pipelined
// across 2 and 4 chips is bit-identical to the faulted single-chip
// executor in every mode.
func TestFaultsPipelineMatchesExecutor(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	for mode, mkOpts := range pipelineModes() {
		for name, fm := range map[string]*device.FaultModel{
			"remap":   {Rate: 0.04, Seed: 23, Remap: true},
			"noremap": {Rate: 0.04, Seed: 23, Drift: 0.03, Remap: false},
		} {
			mk := func() RunOptions {
				o := mkOpts()
				o.Faults = fm
				return o
			}
			assertPipelineMatchesExecutor(t, "faults/"+mode+"/"+name, prog, mk, []int{2, 4}, inputs)
		}
	}
}

// TestFaultsPipelineFaultedCells: the pipelined executor reports the same
// residual faulted-cell total as the single-chip executor — the chips
// partition the same global fault population.
func TestFaultsPipelineFaultedCells(t *testing.T) {
	prog, _ := faultTestProgram(t)
	fm := &device.FaultModel{Rate: 0.05, Seed: 9, Remap: false}
	single, err := NewExecutor(prog, RunOptions{Mode: ModeReference, Faults: fm})
	if err != nil {
		t.Fatal(err)
	}
	want := single.FaultedCells()
	if want == 0 {
		t.Fatal("unremapped 5% fault rate left no faulted cells")
	}
	for _, chips := range []int{2, 4} {
		pe := pipelineAt(t, prog, chips, RunOptions{Mode: ModeReference, Faults: fm})
		if got := pe.FaultedCells(); got != want {
			t.Fatalf("%d-chip pipeline reports %d faulted cells, single-chip %d", chips, got, want)
		}
		if err := pe.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultsRemapReducesResidual: spare-row/column remapping steers
// stuck cells away from live weights — the remapped residual must be
// strictly below the unremapped one at a rate that faults this model,
// and outputs must differ from the unremapped arm's only through those
// residuals (sanity: high unremapped rates perturb outputs at all).
func TestFaultsRemapReducesResidual(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	base, _ := runFaulted(t, prog, RunOptions{Mode: ModeReference}, inputs)
	_, without := runFaulted(t, prog, RunOptions{Mode: ModeReference, Faults: &device.FaultModel{Rate: 0.08, Seed: 3, Remap: false}}, inputs)
	faulted, with := runFaulted(t, prog, RunOptions{Mode: ModeReference, Faults: &device.FaultModel{Rate: 0.08, Seed: 3, Remap: true}}, inputs)
	if without == 0 {
		t.Fatal("unremapped 8% fault rate left no faulted cells")
	}
	if with >= without {
		t.Fatalf("remapping left %d faulted cells, no-remap arm has %d", with, without)
	}
	// The small test crossbars have generous spare capacity, so remap
	// should fully clean this model; if it does, outputs match baseline.
	if with == 0 {
		assertSameOutputs(t, "remapped-clean", base, faulted)
	}
}

// TestFaultsSharedModelConcurrent: executors and per-call RunBatch passes
// on many goroutines share one fault model — and so one mask memo — as
// engine workers, fleet replicas and concurrent ClassifyBatch callers do.
// Every output equals the single-goroutine run on a model of its own (run
// under -race in CI).
func TestFaultsSharedModelConcurrent(t *testing.T) {
	prog, inputs := faultTestProgram(t)
	noisy := func(fm *device.FaultModel) RunOptions {
		return RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(23)), Faults: fm}
	}
	model := func() *device.FaultModel {
		return &device.FaultModel{Rate: 0.04, Seed: 17, Drift: 0.03, ReadSigma: 0.05, Remap: true}
	}
	want, wantCells := runFaulted(t, prog, noisy(model()), inputs)

	shared := model()
	const workers = 8
	type result struct {
		outs  [][]int
		cells int
		err   error
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			ex, err := NewExecutor(prog, noisy(shared))
			if err != nil {
				r.err = err
				return
			}
			r.cells = ex.FaultedCells()
			r.outs, r.err = ex.RunBatch(inputs)
		}(&results[w])
	}
	wg.Wait()
	for w, r := range results {
		if r.err != nil {
			t.Fatalf("worker %d: %v", w, r.err)
		}
		if r.cells != wantCells {
			t.Fatalf("worker %d programmed %d faulted cells, single-goroutine run %d", w, r.cells, wantCells)
		}
		assertSameOutputs(t, "shared-model executor", want, r.outs)
	}
}
