package synth

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fpsa/internal/cgraph"
	"fpsa/internal/shard"
)

// batchInputs draws B random in-window input vectors.
func batchInputs(rng *rand.Rand, b, n, window int) [][]int {
	ins := make([][]int, b)
	for i := range ins {
		ins[i] = randomInput(rng, n, window)
	}
	return ins
}

// assertBatchMatchesSerial runs inputs through one executor serially and
// through an identically programmed executor as one batch, and requires
// bit-identical outputs. mkExec builds a fresh executor with its own
// (identically seeded) variation stream so noisy programming matches too.
func assertBatchMatchesSerial(t *testing.T, label string, mkExec func() *Executor, inputs [][]int) {
	t.Helper()
	serial := mkExec()
	want := make([][]int, len(inputs))
	for i, in := range inputs {
		out, err := runOne(serial, in)
		if err != nil {
			t.Fatalf("%s: serial run %d: %v", label, i, err)
		}
		want[i] = out
	}
	batched := mkExec()
	got, err := batched.RunBatch(inputs)
	if err != nil {
		t.Fatalf("%s: RunBatch: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: RunBatch returned %d outputs, want %d", label, len(got), len(want))
	}
	for b := range want {
		for j := range want[b] {
			if got[b][j] != want[b][j] {
				t.Fatalf("%s: item %d out[%d]: batch %d, serial %d", label, b, j, got[b][j], want[b][j])
			}
		}
	}
	// The batch executor must stay serially usable afterwards (buffer
	// reuse across differently-sized calls), and vice versa.
	for _, b := range []int{0, len(inputs) / 2} {
		out, err := runOne(batched, inputs[b])
		if err != nil {
			t.Fatalf("%s: run-after-batch %d: %v", label, b, err)
		}
		for j := range out {
			if out[j] != want[b][j] {
				t.Fatalf("%s: run-after-batch item %d out[%d]: %d, want %d", label, b, j, out[j], want[b][j])
			}
		}
	}
	if reGot, err := serial.RunBatch(inputs); err != nil {
		t.Fatalf("%s: batch-after-run: %v", label, err)
	} else {
		for b := range want {
			for j := range want[b] {
				if reGot[b][j] != want[b][j] {
					t.Fatalf("%s: batch-after-run item %d out[%d]: %d, want %d", label, b, j, reGot[b][j], want[b][j])
				}
			}
		}
	}
}

// modeExecs enumerates the three execution modes with per-call fresh but
// identically seeded executors (fixed RNG stream for ModeSpikingNoisy).
func modeExecs(t *testing.T, prog *Program) map[string]func() *Executor {
	t.Helper()
	mk := func(opts RunOptions, noisySeed int64) func() *Executor {
		return func() *Executor {
			o := opts
			if o.Mode == ModeSpikingNoisy {
				o.Rng = rand.New(rand.NewSource(noisySeed))
			}
			ex, err := NewExecutor(prog, o)
			if err != nil {
				t.Fatal(err)
			}
			return ex
		}
	}
	return map[string]func() *Executor{
		"reference": mk(RunOptions{Mode: ModeReference}, 0),
		"spiking":   mk(RunOptions{Mode: ModeSpiking}, 0),
		"noisy":     mk(RunOptions{Mode: ModeSpikingNoisy}, 991),
	}
}

// TestRunBatchMatchesRunMLP is the core batch/serial equivalence property
// on an FC program, across all three execution modes.
func TestRunBatchMatchesRunMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	g, ws := buildTestMLP(rng, []int{24, 16, 8})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(rng, 7, 24, opts.Params.SamplingWindow())
	for mode, mkExec := range modeExecs(t, prog) {
		assertBatchMatchesSerial(t, "mlp/"+mode, mkExec, inputs)
	}
}

// TestRunBatchMatchesRunRowSplit exercises the row-split + reduction
// path, where stages feed ± partial pairs to a reduction crossbar.
func TestRunBatchMatchesRunRowSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	g, ws := buildTestMLP(rng, []int{600, 12})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(rng, 4, 600, opts.Params.SamplingWindow())
	for mode, mkExec := range modeExecs(t, prog) {
		if mode == "spiking" {
			continue // covered by noisy (same code path, σ=0 vs σ>0)
		}
		assertBatchMatchesSerial(t, "rowsplit/"+mode, mkExec, inputs)
	}
}

// TestRunBatchMatchesRunConv covers the shared-group convolution program
// (one crossbar time-multiplexed over all positions) in all three modes.
func TestRunBatchMatchesRunConv(t *testing.T) {
	prog, _ := convNet(t, 403, 2, 5, 5, 3, 3, 1, 1)
	rng := rand.New(rand.NewSource(404))
	inputs := batchInputs(rng, 5, 2*5*5, prog.Params.SamplingWindow())
	for mode, mkExec := range modeExecs(t, prog) {
		assertBatchMatchesSerial(t, "conv/"+mode, mkExec, inputs)
	}
}

// TestRunBatchMatchesRunPooling covers the structural max-pool tree and
// average pooling, whose stages read interleaved and zero-padded refs.
func TestRunBatchMatchesRunPooling(t *testing.T) {
	g := cgraph.New("poolnet")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 3, H: 4, W: 4}})
	p := g.MustAdd("pool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, in)
	g.MustAdd("gap", cgraph.GlobalAvgPool{}, p)
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(405))
	inputs := batchInputs(rng, 6, 48, prog.Params.SamplingWindow())
	for mode, mkExec := range modeExecs(t, prog) {
		assertBatchMatchesSerial(t, "pool/"+mode, mkExec, inputs)
	}
}

// TestProgramRunBatchNoisyFixedStream: a fresh executor programmed from a
// fixed seed runs a batch exactly as one-row calls on another executor
// programmed from the same stream.
func TestProgramRunBatchNoisyFixedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g, ws := buildTestMLP(rng, []int{16, 10, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(rng, 5, 16, opts.Params.SamplingWindow())
	noisy := func() *Executor {
		ex, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(55))})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	got, err := noisy().RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ex := noisy()
	for b, in := range inputs {
		want, err := runOne(ex, in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[b][j] != want[j] {
				t.Fatalf("item %d out[%d]: RunBatch %d, serial %d", b, j, got[b][j], want[j])
			}
		}
	}
}

// TestRunBatchValidation: empty batches are a no-op, a bad item is
// reported by index before any execution, and the executor survives.
func TestRunBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	g, ws := buildTestMLP(rng, []int{8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(prog, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	if outs, err := ex.RunBatch(nil); err != nil || outs != nil {
		t.Errorf("empty batch: %v, %v", outs, err)
	}
	good := randomInput(rng, 8, opts.Params.SamplingWindow())
	bad := make([]int, 7)
	if _, err := ex.RunBatch([][]int{good, bad}); err == nil {
		t.Error("mis-sized batch item accepted")
	} else if !strings.Contains(err.Error(), "batch item 1") {
		t.Errorf("error %q does not name the offending item", err)
	}
	if _, err := runOne(ex, bad); err == nil {
		t.Error("mis-sized input accepted")
	}
	if _, err := runOne(ex, good); err != nil {
		t.Errorf("executor unusable after batch error: %v", err)
	}
}

// TestRunBatchResultsShareOneBackingArray pins the result layout: a warm
// RunBatch allocates the slice of results and one flat backing array — two
// allocations at any batch size — and each result's capacity stops at its
// own end, so appending to one cannot overwrite the next. Every way of
// asking for one chip takes that same inline path: construction starts no
// goroutine, Close is a harmless no-op and RunBatch keeps working after it.
func TestRunBatchResultsShareOneBackingArray(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g, ws := buildTestMLP(rng, []int{16, 12, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	onePlan, err := prog.PartitionStages(1, shard.PolicyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	ropts := RunOptions{Mode: ModeSpiking}
	for _, tc := range []struct {
		name string
		mk   func() (*Executor, error)
	}{
		{"NewExecutor", func() (*Executor, error) { return NewExecutor(prog, ropts) }},
		{"nil plan", func() (*Executor, error) { return NewPipelineExecutor(prog, nil, ropts) }},
		{"one-chip plan", func() (*Executor, error) { return NewPipelineExecutor(prog, onePlan, ropts) }},
	} {
		name := tc.name
		before := runtime.NumGoroutine()
		ex, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: construction started goroutines (%d → %d)", name, before, after)
		}
		for _, batch := range []int{1, 16, 64} {
			inputs := batchInputs(rng, batch, 16, opts.Params.SamplingWindow())
			var outs [][]int
			allocs := testing.AllocsPerRun(5, func() {
				if outs, err = ex.RunBatch(inputs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 2 {
				t.Errorf("%s: batch %d: %v allocs per warm RunBatch, want 2", name, batch, allocs)
			}
			for b, out := range outs {
				if cap(out) != len(out) {
					t.Fatalf("%s: batch %d item %d: result cap %d exceeds len %d", name, batch, b, cap(out), len(out))
				}
			}
		}
		for i := 0; i < 2; i++ {
			if err := ex.Close(); err != nil {
				t.Fatalf("%s: Close #%d: %v", name, i+1, err)
			}
		}
		if _, err := ex.RunBatch(batchInputs(rng, 2, 16, opts.Params.SamplingWindow())); err != nil {
			t.Errorf("%s: RunBatch after Close: %v", name, err)
		}
	}
}
