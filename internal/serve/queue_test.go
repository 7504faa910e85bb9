package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpsa/internal/synth"
)

// TestQueueMatchesExecutor is the work-conserving queue's property test
// (run under -race): for call sizes on every side of MaxBatch, InferBatch
// ≡ n serial Infer ≡ synth.Executor.RunBatch, in every mode, at 1 and 4
// workers, single-chip and sharded — while concurrent single-Infer
// callers interleave with the call's chunks, so workers coalesce entries
// and carry ones that do not fit. Noisy mode runs one worker: each worker
// draws its own programming variation, so only then is there one
// reference executor to compare with.
func TestQueueMatchesExecutor(t *testing.T) {
	const maxBatch = 4
	prog := buildProgram(t, 31, []int{10, 8, 6, 3})
	inputs := randomInputs(prog, 32, 3*maxBatch+2)
	for _, mode := range []synth.ExecMode{synth.ModeReference, synth.ModeSpiking, synth.ModeSpikingNoisy} {
		ropts := synth.RunOptions{Mode: mode}
		workerCounts := []int{1, 4}
		if mode == synth.ModeSpikingNoisy {
			// The engine seeds worker 0 from the first draw of its seed stream.
			ropts.Rng = rand.New(rand.NewSource(rand.New(rand.NewSource(33)).Int63()))
			workerCounts = []int{1}
		}
		ex, err := synth.NewExecutor(prog, ropts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.RunBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			for _, chips := range []int{1, 2} {
				for _, n := range []int{1, maxBatch - 1, maxBatch, maxBatch + 1, 3*maxBatch + 2} {
					name := fmt.Sprintf("mode%d/workers%d/chips%d/n%d", mode, workers, chips, n)
					t.Run(name, func(t *testing.T) {
						eng, err := New(prog, Options{Workers: workers, MaxBatch: maxBatch, Chips: chips, Mode: mode, Seed: 33})
						if err != nil {
							t.Fatal(err)
						}
						defer eng.Close()
						checkQueue(t, eng, inputs[:n], want[:n], maxBatch)
					})
				}
			}
		}
	}
}

// checkQueue drives eng with one InferBatch of inputs racing three
// single-Infer callers, then the same inputs serially, and checks every
// reply against want and the counters against the sample count.
func checkQueue(t *testing.T, eng *Engine, inputs, want [][]int, maxBatch int) {
	t.Helper()
	ctx := context.Background()
	const callers, perCaller = 3, 6
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				i := (c + k) % len(inputs)
				out, err := eng.Infer(ctx, inputs[i])
				if err != nil || !reflect.DeepEqual(out, want[i]) {
					t.Errorf("concurrent Infer(%d) = %v, %v; want %v", i, out, err, want[i])
				}
			}
		}(c)
	}
	outs, err := eng.InferBatch(ctx, inputs)
	if err != nil || !reflect.DeepEqual(outs, want) {
		t.Errorf("InferBatch = %v, %v; want %v", outs, err, want)
	}
	wg.Wait()
	for i, in := range inputs {
		out, err := eng.Infer(ctx, in)
		if err != nil || !reflect.DeepEqual(out, want[i]) {
			t.Errorf("serial Infer(%d) = %v, %v; want %v", i, out, err, want[i])
		}
	}
	s := eng.Stats()
	if samples := uint64(callers*perCaller + 2*len(inputs)); s.Requests != samples || s.Errors != 0 || s.Shed != 0 {
		t.Errorf("requests/errors/shed = %d/%d/%d, want %d/0/0", s.Requests, s.Errors, s.Shed, samples)
	}
	if s.MaxExecBatch > maxBatch {
		t.Errorf("MaxExecBatch = %d exceeds MaxBatch %d", s.MaxExecBatch, maxBatch)
	}
}

// TestCoalesceCarryAndClose pins the worker's three moves on a queue whose
// order the test controls (one held worker): singles coalesce into one
// batch, a chunk that does not fit is carried whole to the next batch, an
// invalid chunk fails alone, and Close — issued while the carried entry is
// still pending — completes everything queued.
func TestCoalesceCarryAndClose(t *testing.T) {
	const maxBatch = 4
	prog := buildProgram(t, 35, []int{8, 6, 2})
	inputs := randomInputs(prog, 36, 2+maxBatch+2)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: 1, MaxBatch: maxBatch, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	release := holdWorker(t, eng, inputs[0])

	// Queue order: single, single, full chunk, invalid pair, good pair.
	// The worker coalesces the singles, meets the chunk (2+4 > 4) and
	// carries it, runs it alone next (4 = MaxBatch), then takes both
	// pairs and fails the invalid one only.
	bad := [][]int{inputs[0], make([]int, prog.InputSize+1)}
	chunks := [][][]int{inputs[0:1], inputs[1:2], inputs[2 : 2+maxBatch], bad, inputs[2+maxBatch:]}
	entries := make([]*entry, len(chunks))
	for i, ins := range chunks {
		entries[i] = &entry{ctx: context.Background(), inputs: ins, outs: make([][]int, len(ins)), enq: time.Now(), done: make(chan struct{})}
		if err := eng.submit(context.Background(), entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	for isClosed := false; !isClosed; runtime.Gosched() {
		eng.mu.RLock()
		isClosed = eng.closed
		eng.mu.RUnlock()
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	off := 0
	for i, en := range entries {
		<-en.done // Close returned, so every entry has settled
		if i == 3 {
			if en.err == nil {
				t.Error("invalid chunk accepted")
			}
			continue
		}
		if en.err != nil || !reflect.DeepEqual(en.outs, want[off:off+len(en.inputs)]) {
			t.Errorf("entry %d = %v, %v; want %v", i, en.outs, en.err, want[off:off+len(en.inputs)])
		}
		off += len(en.inputs)
	}
	// Executed batches: the gated 1, the coalesced 2, the carried 4, the
	// surviving pair — 9 live samples; the invalid pair counts as 2
	// completed-with-error samples.
	s := eng.Stats()
	if s.ExecBatches != 4 || s.MaxExecBatch != maxBatch || s.MeanExecBatch != 9.0/4 {
		t.Errorf("exec batches/max/mean = %d/%d/%g, want 4/%d/2.25", s.ExecBatches, s.MaxExecBatch, s.MeanExecBatch, maxBatch)
	}
	if s.Requests != 11 || s.Errors != 2 {
		t.Errorf("requests/errors = %d/%d, want 11/2", s.Requests, s.Errors)
	}
}

// TestInferBatchOwnsSliceHeaders: InferBatch returns on ctx.Done() while
// its entries run to completion, so the caller may reuse its outer slice
// while a worker still reads a chunk. The entries must view their own
// copy of the slice headers: scribbling over the caller's slice while a
// worker holds the first chunk (and the second still waits) changes
// nothing.
func TestInferBatchOwnsSliceHeaders(t *testing.T) {
	prog := buildProgram(t, 37, []int{8, 6, 2})
	inputs := randomInputs(prog, 39, 6)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: 1, MaxBatch: 4, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := newGatedCtx()
	type reply struct {
		outs [][]int
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		outs, err := eng.InferBatch(g, inputs)
		done <- reply{outs, err}
	}()
	<-g.entered // the worker holds chunk one, just before reading its inputs
	for i := range inputs {
		inputs[i] = nil
	}
	close(g.gate)
	if r := <-done; r.err != nil || !reflect.DeepEqual(r.outs, want) {
		t.Errorf("InferBatch = %v, %v; want %v", r.outs, r.err, want)
	}
}

// benchEngine builds a reference-mode engine over a small trained MLP.
func benchEngine(b *testing.B, opts Options) (*Engine, [][]int) {
	b.Helper()
	prog := buildProgram(b, 41, []int{16, 12, 4})
	opts.Mode = synth.ModeReference
	eng, err := New(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng, randomInputs(prog, 42, 64)
}

// BenchmarkEngineLoneInfer: one request in flight at a time on an idle
// engine — the cost of the queue hand-off itself.
func BenchmarkEngineLoneInfer(b *testing.B) {
	eng, inputs := benchEngine(b, Options{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(ctx, inputs[i%len(inputs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInferBatch64: a 64-sample call on the default engine
// shape (4 workers × MaxBatch 8): 8 entries.
func BenchmarkEngineInferBatch64(b *testing.B) {
	eng, inputs := benchEngine(b, Options{Workers: 4, MaxBatch: 8})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.InferBatch(ctx, inputs); err != nil {
			b.Fatal(err)
		}
	}
}
