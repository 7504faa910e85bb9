package synth

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fpsa/internal/shard"
	"fpsa/internal/xbar"
)

// pipelineAt builds a pipeline executor over prog cut into (up to) chips
// segments, failing the test on any construction error.
func pipelineAt(t *testing.T, prog *Program, chips int, opts RunOptions) *Executor {
	t.Helper()
	plan, err := prog.PartitionStages(chips, shard.PolicyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewPipelineExecutor(prog, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// assertPipelineMatchesExecutor requires the pipelined executor at every
// requested chip count to reproduce a single-chip Executor bit for bit,
// for both one-shot RunBatch and per-item Run.
func assertPipelineMatchesExecutor(t *testing.T, label string, prog *Program,
	mkOpts func() RunOptions, chipCounts []int, inputs [][]int) {
	t.Helper()
	single, err := NewExecutor(prog, mkOpts())
	if err != nil {
		t.Fatalf("%s: single-chip executor: %v", label, err)
	}
	want, err := single.RunBatch(inputs)
	if err != nil {
		t.Fatalf("%s: single-chip RunBatch: %v", label, err)
	}
	for _, chips := range chipCounts {
		pe := pipelineAt(t, prog, chips, mkOpts())
		got, err := pe.RunBatch(inputs)
		if err != nil {
			t.Fatalf("%s/%d-chip: RunBatch: %v", label, chips, err)
		}
		for b := range want {
			for j := range want[b] {
				if got[b][j] != want[b][j] {
					t.Fatalf("%s/%d-chip (%d real): item %d out[%d]: pipeline %d, single-chip %d",
						label, chips, pe.Chips(), b, j, got[b][j], want[b][j])
				}
			}
		}
		// Per-item Run through the same pipeline must agree too (buffer
		// reuse across differently sized jobs).
		out, err := pe.Run(inputs[0])
		if err != nil {
			t.Fatalf("%s/%d-chip: Run: %v", label, chips, err)
		}
		for j := range want[0] {
			if out[j] != want[0][j] {
				t.Fatalf("%s/%d-chip: Run out[%d]: %d, want %d", label, chips, j, out[j], want[0][j])
			}
		}
		if err := pe.Close(); err != nil {
			t.Fatalf("%s/%d-chip: Close: %v", label, chips, err)
		}
	}
}

// pipelineModes enumerates the three execution modes as fresh,
// identically seeded RunOptions factories, so the pipeline and the
// single-chip executor program identical (noisy) conductances.
func pipelineModes() map[string]func() RunOptions {
	return map[string]func() RunOptions{
		"reference": func() RunOptions { return RunOptions{Mode: ModeReference} },
		"spiking":   func() RunOptions { return RunOptions{Mode: ModeSpiking} },
		"noisy": func() RunOptions {
			return RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(1213))}
		},
	}
}

// TestPipelineMatchesExecutorMLP: sharded execution of an FC program at
// 2 and 4 chips is bit-identical to single-chip in all three modes.
func TestPipelineMatchesExecutorMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
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
	inputs := batchInputs(rng, 6, 20, opts.Params.SamplingWindow())
	for mode, mkOpts := range pipelineModes() {
		assertPipelineMatchesExecutor(t, "mlp/"+mode, prog, mkOpts, []int{2, 4}, inputs)
	}
}

// TestPipelineMatchesExecutorRowSplit covers the row-split + reduction
// path, whose reduction stages read ± partial pairs across a cut.
func TestPipelineMatchesExecutorRowSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	g, ws := buildTestMLP(rng, []int{600, 12, 6})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(rng, 4, 600, opts.Params.SamplingWindow())
	for mode, mkOpts := range pipelineModes() {
		if mode == "spiking" {
			continue // covered by noisy (same code path, σ=0 vs σ>0)
		}
		assertPipelineMatchesExecutor(t, "rowsplit/"+mode, prog, mkOpts, []int{2, 4}, inputs)
	}
}

// TestPipelineMatchesExecutorConv covers a convolution program whose
// weight group is shared across every position: the group pins all its
// stages to one chip, so legal cuts only exist at layer boundaries.
func TestPipelineMatchesExecutorConv(t *testing.T) {
	prog, _ := convNet(t, 503, 2, 5, 5, 3, 3, 1, 1)
	rng := rand.New(rand.NewSource(504))
	inputs := batchInputs(rng, 5, 2*5*5, prog.Params.SamplingWindow())
	for mode, mkOpts := range pipelineModes() {
		assertPipelineMatchesExecutor(t, "conv/"+mode, prog, mkOpts, []int{2, 4}, inputs)
	}
}

// TestPartitionStagesRespectsSharedGroups: no plan boundary may fall
// inside a weight group's stage span, at any requested chip count.
func TestPartitionStagesRespectsSharedGroups(t *testing.T) {
	prog, _ := convNet(t, 505, 2, 6, 6, 2, 3, 1, 1)
	for chips := 1; chips <= 6; chips++ {
		plan, err := prog.PartitionStages(chips, shard.PolicyBalanced)
		if err != nil {
			t.Fatalf("chips=%d: %v", chips, err)
		}
		if plan.Chips() > chips {
			t.Fatalf("chips=%d: plan has %d segments", chips, plan.Chips())
		}
		span := make(map[int][2]int)
		for si, st := range prog.Stages {
			s, ok := span[st.GroupID]
			if !ok {
				span[st.GroupID] = [2]int{si, si}
				continue
			}
			s[1] = si
			span[st.GroupID] = s
		}
		for gid, s := range span {
			if plan.ShardOf(s[0]) != plan.ShardOf(s[1]) {
				t.Fatalf("chips=%d: group %d spans chips %d..%d", chips, gid, plan.ShardOf(s[0]), plan.ShardOf(s[1]))
			}
		}
	}
}

// TestPartitionStagesClampsToFeasible: asking for more chips than there
// are stages degrades gracefully instead of failing.
func TestPartitionStagesClampsToFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	g, ws := buildTestMLP(rng, []int{8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prog.PartitionStages(16, shard.PolicyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chips() > len(prog.Stages) {
		t.Fatalf("plan has %d chips for %d stages", plan.Chips(), len(prog.Stages))
	}
}

// TestPipelineConcurrentRunBatch is the race test for the executor's one
// concurrency contract: many goroutines stream batches through one
// executor at once, at 1 and 3 chips, and every result must still be
// bit-identical to a serially driven single-chip executor. Run under -race
// in CI.
func TestPipelineConcurrentRunBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	g, ws := buildTestMLP(rng, []int{16, 12, 8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	const feeders = 4
	const jobsPerFeeder = 8
	batches := make([][][]int, feeders*jobsPerFeeder)
	for i := range batches {
		batches[i] = batchInputs(rng, 1+i%5, 16, window)
	}
	single, err := NewExecutor(prog, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]int, len(batches))
	for i, b := range batches {
		if want[i], err = single.RunBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, chips := range []int{1, 3} {
		pe := pipelineAt(t, prog, chips, RunOptions{Mode: ModeReference})
		if pe.Chips() != chips {
			t.Fatalf("realized %d chips, want %d", pe.Chips(), chips)
		}
		var wg sync.WaitGroup
		errs := make([]error, feeders)
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for j := 0; j < jobsPerFeeder; j++ {
					idx := f*jobsPerFeeder + j
					got, err := pe.RunBatch(batches[idx])
					if err != nil {
						errs[f] = err
						return
					}
					for b := range want[idx] {
						for k := range want[idx][b] {
							if got[b][k] != want[idx][b][k] {
								t.Errorf("%d chips: feeder %d job %d item %d out[%d]: %d, want %d",
									chips, f, j, b, k, got[b][k], want[idx][b][k])
								return
							}
						}
					}
				}
			}(f)
		}
		wg.Wait()
		for f, err := range errs {
			if err != nil {
				t.Fatalf("%d chips: feeder %d: %v", chips, f, err)
			}
		}
	}
}

// TestShardedPanicReachesCaller: a panic under the kernel on a stage chip 1
// owns reaches the goroutine that called RunBatch, and the executor is
// left usable — the next call succeeds and matches the one-chip executor.
func TestShardedPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	g, ws := buildTestMLP(rng, []int{12, 10, 8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(rng, 3, 12, opts.Params.SamplingWindow())
	single, err := NewExecutor(prog, RunOptions{Mode: ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prog.PartitionStages(2, shard.PolicyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chips() != 2 {
		t.Fatalf("plan has %d chips, want 2", plan.Chips())
	}
	last := len(prog.Stages) - 1
	if plan.ShardOf(last) != 1 {
		t.Fatalf("last stage on chip %d, want 1", plan.ShardOf(last))
	}
	// Stages run in order, one kernel call each: the first batch's last
	// call is the last stage's, and it panics.
	calls := 0
	ropts := RunOptions{Mode: ModeSpiking}
	ropts.spikeKernel = func(c *xbar.Crossbar, dst, src []int, batch int) error {
		if calls++; calls == last+1 {
			panic("chip 1 kernel")
		}
		return c.SimulateCountsBatch(dst, src, batch)
	}
	ex, err := NewPipelineExecutor(prog, plan, ropts)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "chip 1 kernel" {
				t.Errorf("recovered %v, want the chip 1 kernel's panic", r)
			}
		}()
		ex.RunBatch(inputs)
	}()
	got, err := ex.RunBatch(inputs)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("RunBatch after the panic = %v, %v; want %v", got, err, want)
	}
}

// TestPipelineValidationAndClose: bad inputs fail by index before
// touching the executor, Close is idempotent, and RunBatch after Close
// still works.
func TestPipelineValidationAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(508))
	g, ws := buildTestMLP(rng, []int{8, 6, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe := pipelineAt(t, prog, 2, RunOptions{Mode: ModeReference})
	good := randomInput(rng, 8, opts.Params.SamplingWindow())
	if outs, err := pe.RunBatch(nil); err != nil || outs != nil {
		t.Errorf("empty batch: %v, %v", outs, err)
	}
	if _, err := pe.RunBatch([][]int{good, make([]int, 3)}); err == nil {
		t.Error("mis-sized batch item accepted")
	}
	if err := pe.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	if err := pe.Validate(make([]int, 3)); err == nil {
		t.Error("Validate(bad) accepted")
	}
	if _, err := pe.Run(good); err != nil {
		t.Errorf("Run after batch error: %v", err)
	}
	if err := pe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pe.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := pe.RunBatch([][]int{good}); err != nil {
		t.Errorf("RunBatch after Close = %v, want it to keep working", err)
	}
	// NewPipelineExecutor with a nil plan runs single-chip.
	pe2, err := NewPipelineExecutor(prog, nil, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer pe2.Close()
	if pe2.Chips() != 1 {
		t.Errorf("nil-plan pipeline has %d chips, want 1", pe2.Chips())
	}
	if _, err := pe2.Run(good); err != nil {
		t.Errorf("nil-plan Run: %v", err)
	}
	if _, err := NewPipelineExecutor(prog, nil, RunOptions{Mode: ModeSpikingNoisy}); err == nil {
		t.Error("noisy pipeline without Rng accepted")
	}
}
