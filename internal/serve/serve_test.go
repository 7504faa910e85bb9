package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// buildProgram trains a small MLP and compiles it to an executable
// program — the same path fpsa.TrainMLP + Compile + NewNet takes.
func buildProgram(t testing.TB, seed int64, dims []int) *synth.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := trainer.NewMLP(rng, dims)
	if err != nil {
		t.Fatal(err)
	}
	ds := trainer.SyntheticClusters(rng, 200, dims[0], dims[len(dims)-1], 0.08)
	net.Train(rng, ds, trainer.TrainOptions{Epochs: 10})
	return compileMLP(t, net)
}

// compileMLP compiles net, trained or not, to an executable program.
func compileMLP(t testing.TB, net *trainer.MLP) *synth.Program {
	t.Helper()
	opts := synth.DefaultOptions()
	opts.Weights = net.WeightSource()
	_, prog, err := synth.Compile(net.Graph("serve-test"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func randomInputs(prog *synth.Program, seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	window := prog.Params.SamplingWindow()
	ins := make([][]int, n)
	for i := range ins {
		in := make([]int, prog.InputSize)
		for j := range in {
			in[j] = rng.Intn(window + 1)
		}
		ins[i] = in
	}
	return ins
}

// TestEngineMatchesSerial is the -race integration test: N goroutines ×
// M classifications against one Engine must reproduce the serial
// executor bit for bit.
func TestEngineMatchesSerial(t *testing.T) {
	prog := buildProgram(t, 1, []int{12, 10, 3})
	inputs := randomInputs(prog, 2, 16)

	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(inputs))
	for i := range inputs {
		one, err := ex.RunBatch(inputs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = one[0]
	}

	eng, err := New(prog, Options{Workers: 4, MaxBatch: 4, Mode: synth.ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, in := range inputs {
				out, err := eng.Infer(context.Background(), in)
				if err != nil {
					errs <- err
					return
				}
				for j := range out {
					if out[j] != want[i][j] {
						errs <- fmt.Errorf("goroutine %d input %d: out[%d] = %d, want %d", g, i, j, out[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := eng.Stats()
	if s.Requests != goroutines*uint64(len(inputs)) {
		t.Errorf("stats.Requests = %d, want %d", s.Requests, goroutines*len(inputs))
	}
	if s.Errors != 0 {
		t.Errorf("stats.Errors = %d", s.Errors)
	}
	if s.ExecBatches == 0 || s.MeanExecBatch <= 0 {
		t.Errorf("batch stats empty: %+v", s)
	}
	if s.P99LatencyUS < s.P50LatencyUS {
		t.Errorf("p99 %.1f < p50 %.1f", s.P99LatencyUS, s.P50LatencyUS)
	}
}

// TestLoneRequestRunsAlone proves a lone request on an idle engine runs
// at once as a batch of one, whatever MaxBatch is.
func TestLoneRequestRunsAlone(t *testing.T) {
	prog := buildProgram(t, 3, []int{8, 6, 2})
	eng, err := New(prog, Options{
		Workers:  1,
		MaxBatch: 64, // never reached by one request
		Mode:     synth.ModeReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := randomInputs(prog, 4, 1)[0]
	if _, err := eng.Infer(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.ExecBatches != 1 || s.MaxExecBatch != 1 || s.Requests != 1 {
		t.Errorf("stats = %+v, want 1 batch of 1 / 1 request", s)
	}
}

// TestInferBatchChunks proves a batch call on an idle engine runs one
// kernel pass per executor it holds: 20 samples at MaxBatch 8 take
// min(workers, ⌈20/8⌉, GOMAXPROCS) executors, each an even share of the
// samples in one pass (20, 10+10 or 6+7+7), and the call records one
// latency, not one per pass.
func TestInferBatchChunks(t *testing.T) {
	const n = 20
	prog := buildProgram(t, 5, []int{8, 6, 2})
	for _, workers := range []int{1, 2, 4} {
		eng, err := New(prog, Options{Workers: workers, MaxBatch: 8, Mode: synth.ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InferBatch(context.Background(), randomInputs(prog, 6, n)); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		eng.Close()
		p := min(workers, (n+7)/8, eng.procs)
		if s.ExecBatches != uint64(p) || s.MeanExecBatch != float64(n)/float64(p) || s.MaxExecBatch != (n+p-1)/p || s.Requests != n {
			t.Errorf("workers=%d: stats = %+v, want %d even passes / %d requests", workers, s, p, n)
		}
		var lat LatencyHistogram
		eng.MergeLatency(&lat)
		if n := latencies(&lat); n != 1 {
			t.Errorf("workers=%d: %d latencies recorded for one call, want 1", workers, n)
		}
	}
}

// latencies counts the observations h holds.
func latencies(h *LatencyHistogram) (n uint64) {
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestInferBatchMatchesSerial(t *testing.T) {
	prog := buildProgram(t, 7, []int{10, 8, 3})
	inputs := randomInputs(prog, 8, 12)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: 3, MaxBatch: 4, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	outs, err := eng.InferBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		want, err := ex.RunBatch(inputs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[i], want[0]) {
			t.Fatalf("batch[%d] = %v, want %v", i, outs[i], want[0])
		}
	}
}

// TestClassifyBatchMatchesInferBatch: the features calls are InferBatch
// on the quantized batch — ClassifyBatch its argmax classes, Outputs its
// counts back to back, of one sample or of all — at every executor count
// (a lone call fans out over the idle ones), with the same error for a
// wrong-length sample, and the same stats: one request per sample and
// one kernel pass per executor a call holds.
func TestClassifyBatchMatchesInferBatch(t *testing.T) {
	const maxBatch = 4
	prog := buildProgram(t, 17, []int{10, 8, 3})
	window := prog.Params.SamplingWindow()
	quantize := func(batch [][]float64) [][]int {
		rows := make([][]int, len(batch))
		for i, f := range batch {
			rows[i] = synth.QuantizeInput(f, window)
		}
		return rows
	}
	rng := rand.New(rand.NewSource(18))
	batch := make([][]float64, 3*maxBatch+1)
	for i := range batch {
		batch[i] = make([]float64, prog.InputSize)
		for j := range batch[i] {
			batch[i][j] = rng.Float64()*1.2 - 0.1
		}
	}
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		eng, err := New(prog, Options{Workers: workers, MaxBatch: maxBatch, Mode: synth.ModeSpiking})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := eng.InferBatch(ctx, quantize(batch))
		if err != nil {
			t.Fatal(err)
		}
		classes, err := eng.ClassifyBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if classes[i] != synth.Argmax(out) {
				t.Fatalf("workers=%d: sample %d: class %d, want %d", workers, i, classes[i], synth.Argmax(out))
			}
			if got, err := eng.Outputs(ctx, batch[i:i+1]); err != nil || !reflect.DeepEqual(got, out) {
				t.Fatalf("workers=%d: Outputs(sample %d) = %v, %v; want %v", workers, i, got, err, out)
			}
		}
		pieces := min(workers, (len(batch)+maxBatch-1)/maxBatch, eng.procs)
		if s := eng.Stats(); s.Requests != uint64(3*len(batch)) || s.ExecBatches != uint64(2*pieces+len(batch)) {
			t.Errorf("workers=%d: requests/batches = %d/%d, want %d/%d", workers, s.Requests, s.ExecBatches, 3*len(batch), 2*pieces+len(batch))
		}
		flat, err := eng.Outputs(ctx, batch)
		if err != nil || len(flat) != len(batch)*len(outs[0]) {
			t.Fatalf("workers=%d: Outputs(batch) = %d counts, %v; want %d", workers, len(flat), err, len(batch)*len(outs[0]))
		}
		for i, out := range outs {
			if got := flat[i*len(out) : (i+1)*len(out)]; !reflect.DeepEqual(got, out) {
				t.Fatalf("workers=%d: Outputs(batch) sample %d = %v, want %v", workers, i, got, out)
			}
		}
		bad := append([][]float64(nil), batch...)
		bad[maxBatch+1] = bad[maxBatch+1][1:]
		_, wantErr := eng.InferBatch(ctx, quantize(bad))
		if _, err := eng.ClassifyBatch(ctx, bad); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers=%d: malformed ClassifyBatch error %v, want %v", workers, err, wantErr)
		}
		_, wantErr = eng.Infer(ctx, synth.QuantizeInput(bad[maxBatch+1], window))
		if out, err := eng.Outputs(ctx, bad[maxBatch+1:maxBatch+2]); out != nil || wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers=%d: malformed Outputs = %v, %v; want the error %v", workers, out, err, wantErr)
		}
		if classes, err := eng.ClassifyBatch(ctx, nil); err != nil || classes == nil || len(classes) != 0 {
			t.Errorf("workers=%d: empty ClassifyBatch = %v, %v; want an empty slice", workers, classes, err)
		}
		checkPool(t, eng)
		eng.Close()
		if _, err := eng.ClassifyBatch(ctx, batch); err != ErrClosed {
			t.Errorf("workers=%d: ClassifyBatch after Close = %v, want ErrClosed", workers, err)
		}
		if _, err := eng.Outputs(ctx, batch[:1]); err != ErrClosed {
			t.Errorf("workers=%d: Outputs after Close = %v, want ErrClosed", workers, err)
		}
	}
}

func TestBadInputSurfacesError(t *testing.T) {
	prog := buildProgram(t, 9, []int{8, 6, 2})
	eng, err := New(prog, Options{Workers: 1, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Infer(context.Background(), make([]int, prog.InputSize+1)); err == nil {
		t.Error("wrong-length input accepted")
	}
	if s := eng.Stats(); s.Errors != 1 {
		t.Errorf("stats.Errors = %d, want 1", s.Errors)
	}
}

func TestCloseSemantics(t *testing.T) {
	prog := buildProgram(t, 11, []int{8, 6, 2})
	eng, err := New(prog, Options{Workers: 2, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := eng.Infer(context.Background(), make([]int, prog.InputSize)); err != ErrClosed {
		t.Errorf("Infer after Close = %v, want ErrClosed", err)
	}
}

// TestAbandonedRequestShed: a caller whose ctx ends while it waits for an
// executor leaves at once with ctx's error; Shed counts its samples,
// nothing was simulated for it, and the pool is whole when the executors
// come back.
func TestAbandonedRequestShed(t *testing.T) {
	prog := buildProgram(t, 14, []int{8, 6, 2})
	eng, err := New(prog, Options{Workers: 2, MaxBatch: 64, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	held := park(eng, 2)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, err := eng.Infer(ctx, randomInputs(prog, 15, 1)[0])
		errs <- err
	}()
	go func() {
		_, err := eng.InferBatch(ctx, randomInputs(prog, 15, 3))
		errs <- err
	}()
	waitWaiting(eng, 2)
	cancel() // both abandoned while the executors are still out
	for i := 0; i < 2; i++ {
		if err := <-errs; err != context.Canceled {
			t.Errorf("abandoned call = %v, want context.Canceled", err)
		}
	}
	unpark(eng, held)
	checkPool(t, eng)
	s := eng.Stats()
	if s.Shed != 4 || s.Requests != 0 || s.ExecBatches != 0 || s.QueueDepth != 0 {
		t.Errorf("shed/requests/batches/waiting = %d/%d/%d/%d, want 4/0/0/0: %+v", s.Shed, s.Requests, s.ExecBatches, s.QueueDepth, s)
	}
}

func TestInferHonorsContext(t *testing.T) {
	prog := buildProgram(t, 13, []int{8, 6, 2})
	eng, err := New(prog, Options{Workers: 1, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, make([]int, prog.InputSize)); err != context.Canceled {
		t.Errorf("Infer with canceled ctx = %v, want context.Canceled", err)
	}
}

// TestNoisyWorkersDeterministic: the engine programs its executors'
// variation from one sub-seed drawn from Seed, and every executor draws
// the same, so a noisy engine is a deterministic function of its seed —
// whichever executor serves a call, and however many the engine holds.
func TestNoisyWorkersDeterministic(t *testing.T) {
	prog := buildProgram(t, 15, []int{8, 6, 2})
	in := randomInputs(prog, 16, 1)[0]
	// run serves in from 2×workers concurrent callers, so a many-executor
	// engine answers from more than one executor.
	run := func(seed int64, workers int) [][]int {
		eng, err := New(prog, Options{Workers: workers, Mode: synth.ModeSpikingNoisy, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		outs := make([][]int, 2*workers)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				if outs[i], err = eng.Infer(context.Background(), in); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		return outs
	}
	want := run(42, 1)[0]
	for _, workers := range []int{1, 4} {
		for i, out := range run(42, workers) {
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("seed 42, %d workers, call %d: %v, want %v", workers, i, out, want)
			}
		}
	}
}

// TestExecBatchStats: one executor runs its share of a call in passes of
// max(MaxBatch, maxPass) samples, each a single RunBatch call, and the
// Stats surface reports the executed batch sizes: 150 samples at MaxBatch
// 4 are 64+64+22.
func TestExecBatchStats(t *testing.T) {
	const n = 2*maxPass + 22
	prog := buildProgram(t, 13, []int{10, 8, 3})
	inputs := randomInputs(prog, 14, n)
	eng, err := New(prog, Options{Workers: 1, MaxBatch: 4, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Requests != n || s.ExecBatches != 3 || s.MeanExecBatch != n/3.0 || s.MaxExecBatch != maxPass {
		t.Errorf("requests/batches/mean/max = %d/%d/%g/%d, want %d/3/%g/%d",
			s.Requests, s.ExecBatches, s.MeanExecBatch, s.MaxExecBatch, n, n/3.0, maxPass)
	}
}

// TestAutoPathKernelStats: Stats reports the crossbars' spiking-kernel
// calls and the observed spike density — single-chip and sharded. (That the
// kernel equals its dense oracle is pinned below this layer: internal/xbar's
// property/fuzz tests and internal/synth/sparse_test.go.)
func TestAutoPathKernelStats(t *testing.T) {
	prog := buildProgram(t, 23, []int{10, 8, 6, 3})
	inputs := randomInputs(prog, 24, 10)
	for _, chips := range []int{1, 2} {
		eng, err := New(prog, Options{Workers: 2, MaxBatch: 4, Mode: synth.ModeSpiking, Chips: chips})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		eng.Close()
		if st.SparseKernels == 0 {
			t.Errorf("chips=%d: no spiking-kernel calls counted", chips)
		}
		if st.SpikeDensity <= 0 || st.SpikeDensity > 1 {
			t.Errorf("chips=%d SpikeDensity = %g, want in (0,1]", chips, st.SpikeDensity)
		}
	}
}

// TestStatsCountEachExecutorOnce: with Workers executors at any chip
// count, Stats counts every kernel call exactly once (one per stage per
// executed batch) and reports the deployment's stuck cells once, not per
// executor.
func TestStatsCountEachExecutorOnce(t *testing.T) {
	prog := buildProgram(t, 27, []int{10, 8, 6, 3})
	inputs := randomInputs(prog, 28, 24)
	faults := &device.FaultModel{Rate: 0.05, Seed: 9}
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeSpiking, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	wantFaulted := ex.FaultedCells()
	if wantFaulted == 0 {
		t.Fatal("fixture has no stuck cells")
	}
	for _, workers := range []int{1, 3} {
		for _, chips := range []int{1, 2} {
			eng, err := New(prog, Options{Workers: workers, MaxBatch: 4, Mode: synth.ModeSpiking, Chips: chips, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Chips() != chips {
				t.Fatalf("workers=%d: realized %d chips, want %d", workers, eng.Chips(), chips)
			}
			if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			eng.Close()
			if st.FaultedCells != wantFaulted {
				t.Errorf("workers=%d chips=%d: FaultedCells = %d, one executor has %d", workers, chips, st.FaultedCells, wantFaulted)
			}
			if got, want := st.SparseKernels, st.ExecBatches*uint64(len(prog.Stages)); got != want {
				t.Errorf("workers=%d chips=%d: %d kernel calls over %d batches of %d stages, want %d",
					workers, chips, got, st.ExecBatches, len(prog.Stages), want)
			}
		}
	}
}

// TestInvalidItemDoesNotPoisonBatch: a pass never mixes callers, so a
// malformed sample fails only the call that brought it — its error names
// the failing pass's samples within the call, and so the sample's own
// position — while a concurrent caller's batches keep matching the serial
// path.
func TestInvalidItemDoesNotPoisonBatch(t *testing.T) {
	const maxBatch, rounds = 4, 20
	prog := buildProgram(t, 15, []int{10, 8, 3})
	good := randomInputs(prog, 16, 2*maxBatch)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunBatch(good)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: 2, MaxBatch: maxBatch, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The malformed sample sits in the second half: in the one pass of a
	// call that holds one executor, in the second of one that holds two.
	bad := append([][]int(nil), good...)
	bad[maxBatch+1] = make([]int, prog.InputSize+2)
	named := regexp.MustCompile(`^serve: batch samples (\d+) to (\d+): synth: batch item (\d+): `)
	failed := 0 // samples in the malformed calls' failed passes
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			outs, err := eng.InferBatch(context.Background(), bad)
			var m []string
			if err != nil {
				m = named.FindStringSubmatch(err.Error())
			}
			if m == nil || outs != nil {
				t.Errorf("malformed call = %v, %v; want an error naming a pass and item", outs, err)
				continue
			}
			lo, _ := strconv.Atoi(m[1])
			hi, _ := strconv.Atoi(m[2])
			item, _ := strconv.Atoi(m[3])
			if lo+item != maxBatch+1 {
				t.Errorf("malformed call = %v; want it to name sample %d", err, maxBatch+1)
			}
			failed += hi - lo + 1
			if _, err := eng.Infer(context.Background(), bad[maxBatch+1]); err == nil {
				t.Error("malformed request accepted")
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			outs, err := eng.InferBatch(context.Background(), good)
			if err != nil || !reflect.DeepEqual(outs, want) {
				t.Errorf("healthy call beside a malformed one = %v, %v; want %v", outs, err, want)
			}
		}
	}()
	wg.Wait()
	checkPool(t, eng)
	// A malformed call's healthy pass, if it has one, still runs; its bad
	// pass and the lone bad request complete with an error and never reach
	// the kernel.
	s := eng.Stats()
	if s.Errors != uint64(rounds+failed) || s.Requests != rounds*(4*maxBatch+1) {
		t.Errorf("errors/requests = %d/%d, want %d/%d", s.Errors, s.Requests, rounds+failed, rounds*(4*maxBatch+1))
	}
}

// TestShardedEngineMatchesSingleChip: an engine serving a sharded
// deployment (Chips ≥ 2) must reproduce the single-chip engine bit for
// bit under concurrent load, in spiking and noisy modes: three executors
// against one, every executor programmed with the single-chip engine's
// variation. Run under -race in CI.
func TestShardedEngineMatchesSingleChip(t *testing.T) {
	prog := buildProgram(t, 21, []int{14, 12, 8, 3})
	inputs := randomInputs(prog, 22, 12)
	for _, mode := range []synth.ExecMode{synth.ModeSpiking, synth.ModeSpikingNoisy} {
		const workers = 3
		single, err := New(prog, Options{Workers: 1, MaxBatch: 4, Mode: mode, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, len(inputs))
		for i, in := range inputs {
			if want[i], err = single.Infer(context.Background(), in); err != nil {
				t.Fatal(err)
			}
		}
		single.Close()

		sharded, err := New(prog, Options{Workers: workers, MaxBatch: 4, Mode: mode, Seed: 33, Chips: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Chips() != 2 {
			t.Fatalf("mode %v: Chips() = %d, want 2", mode, sharded.Chips())
		}
		const goroutines = 6
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, in := range inputs {
					out, err := sharded.Infer(context.Background(), in)
					if err != nil {
						errs <- err
						return
					}
					for j := range out {
						if out[j] != want[i][j] {
							errs <- fmt.Errorf("mode %v goroutine %d input %d: out[%d] = %d, want %d",
								mode, g, i, j, out[j], want[i][j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		s := sharded.Stats()
		if s.Chips != 2 {
			t.Errorf("stats.Chips = %d, want 2", s.Chips)
		}
		if err := sharded.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestShardedNoisyEnginePinned pins, as one FNV-64a digest, the outputs of
// a noisy 2-chip engine with one executor and of sharded executors at 2 and
// 4 chips in every mode. The digest was recorded while each chip of a
// sharded executor ran on a goroutine of its own, so it also holds that
// walking the chips on the caller's goroutine changed no output and no
// variation draw.
func TestShardedNoisyEnginePinned(t *testing.T) {
	const want = 0x38c772047106a6a4
	prog := buildProgram(t, 51, []int{14, 12, 10, 8, 3})
	inputs := randomInputs(prog, 52, 32)
	h := fnv.New64a()
	put := func(outs [][]int) {
		for _, out := range outs {
			for _, v := range out {
				binary.Write(h, binary.LittleEndian, int64(v))
			}
		}
	}
	eng, err := New(prog, Options{Workers: 1, MaxBatch: 4, Chips: 2, Mode: synth.ModeSpikingNoisy, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eng.InferBatch(context.Background(), inputs)
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	put(outs)
	for _, chips := range []int{2, 4} {
		plan, err := prog.PartitionStages(chips, shard.PolicyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Chips() != chips {
			t.Fatalf("plan has %d chips, want %d", plan.Chips(), chips)
		}
		for _, mode := range []synth.ExecMode{synth.ModeReference, synth.ModeSpiking, synth.ModeSpikingNoisy} {
			ropts := synth.RunOptions{Mode: mode}
			if mode == synth.ModeSpikingNoisy {
				ropts.Rng = rand.New(rand.NewSource(54))
			}
			ex, err := synth.NewPipelineExecutor(prog, plan, ropts)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := ex.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			put(outs)
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("sharded outputs digest %#x, want %#x", got, want)
	}
}

// TestShardedEngineClampsChips: asking for more chips than the program
// has stages degrades to the feasible depth instead of failing, and the
// engine still serves.
func TestShardedEngineClampsChips(t *testing.T) {
	prog := buildProgram(t, 23, []int{6, 3})
	eng, err := New(prog, Options{Workers: 2, MaxBatch: 2, Chips: 16, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Chips() > len(prog.Stages) {
		t.Fatalf("Chips() = %d for a %d-stage program", eng.Chips(), len(prog.Stages))
	}
	if _, err := eng.Infer(context.Background(), randomInputs(prog, 24, 1)[0]); err != nil {
		t.Fatalf("Infer: %v", err)
	}
}

// TestShardedEngineBadInput: a bad request fails alone on a sharded
// engine too, and the engine keeps serving.
func TestShardedEngineBadInput(t *testing.T) {
	prog := buildProgram(t, 25, []int{8, 5, 2})
	eng, err := New(prog, Options{Workers: 2, MaxBatch: 4, Chips: 2, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	good := randomInputs(prog, 26, 1)[0]
	if _, err := eng.Infer(context.Background(), make([]int, 3)); err == nil {
		t.Error("mis-sized input accepted")
	}
	if _, err := eng.Infer(context.Background(), good); err != nil {
		t.Errorf("good input after bad: %v", err)
	}
}
