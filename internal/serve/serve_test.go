package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
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
	for i, in := range inputs {
		if want[i], err = ex.Run(in); err != nil {
			t.Fatal(err)
		}
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

// TestInferBatchChunks proves InferBatch runs whole MaxBatch chunks and
// never splits or merges them: 20 samples at MaxBatch 8 run as exactly
// 8+8+4, whichever executors take them.
func TestInferBatchChunks(t *testing.T) {
	prog := buildProgram(t, 5, []int{8, 6, 2})
	for _, workers := range []int{1, 2, 4} {
		eng, err := New(prog, Options{Workers: workers, MaxBatch: 8, Mode: synth.ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InferBatch(context.Background(), randomInputs(prog, 6, 20)); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		eng.Close()
		if s.ExecBatches != 3 || s.MeanExecBatch != 20.0/3 || s.MaxExecBatch != 8 || s.Requests != 20 {
			t.Errorf("workers=%d: stats = %+v, want batches of 8+8+4 / 20 requests", workers, s)
		}
	}
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
	for i, in := range inputs {
		want, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("batch[%d][%d] = %d, want %d", i, j, outs[i][j], want[j])
			}
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
		t.Errorf("shed/requests/batches/waiting = %d/%d/%d/%d, want 4/0/0/0: %s", s.Shed, s.Requests, s.ExecBatches, s.QueueDepth, s)
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
// variation from one sub-seed drawn from Seed, so a noisy engine is a
// deterministic function of its seed.
func TestNoisyWorkersDeterministic(t *testing.T) {
	prog := buildProgram(t, 15, []int{8, 6, 2})
	in := randomInputs(prog, 16, 1)[0]
	run := func(seed int64) []int {
		eng, err := New(prog, Options{Workers: 1, Mode: synth.ModeSpikingNoisy, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		out, err := eng.Infer(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42), run(42)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Requests: 10, ExecBatches: 2, MeanExecBatch: 5, Workers: 4}
	for _, want := range []string{"served 10 requests", "2 batches", "4 workers"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("Stats.String() = %q missing %q", s.String(), want)
		}
	}
}

// TestExecBatchStats: every chunk runs as a single RunBatch call, and the
// Stats surface reports the executed batch sizes.
func TestExecBatchStats(t *testing.T) {
	prog := buildProgram(t, 13, []int{10, 8, 3})
	inputs := randomInputs(prog, 14, 12)
	eng, err := New(prog, Options{Workers: 1, MaxBatch: 4, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Requests != 12 {
		t.Errorf("Requests = %d, want 12", s.Requests)
	}
	if s.ExecBatches == 0 || s.ExecBatches > 12 {
		t.Errorf("ExecBatches = %d, want in [1,12]", s.ExecBatches)
	}
	if s.MeanExecBatch < 1 || s.MeanExecBatch > 4 {
		t.Errorf("MeanExecBatch = %g, want in [1,4]", s.MeanExecBatch)
	}
	if s.MaxExecBatch < 1 || s.MaxExecBatch > 4 {
		t.Errorf("MaxExecBatch = %d, want in [1,4]", s.MaxExecBatch)
	}
	for _, want := range []string{"exec mean", "max"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("Stats.String() = %q missing %q", s.String(), want)
		}
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
		if !strings.Contains(st.String(), "spiking-kernel calls") {
			t.Errorf("Stats.String() = %q missing kernel counters", st.String())
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

// TestInvalidItemDoesNotPoisonBatch: a chunk never mixes callers, so a
// malformed sample fails only the call that brought it — named by its
// position in that call — while a concurrent caller's batches keep
// matching the serial path.
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
	// The malformed sample sits in the second chunk.
	bad := append([][]int(nil), good...)
	bad[maxBatch+1] = make([]int, prog.InputSize+2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			outs, err := eng.InferBatch(context.Background(), bad)
			if err == nil || outs != nil || !strings.Contains(err.Error(), "samples 4 to 7: synth: batch item 1") {
				t.Errorf("malformed call = %v, %v; want an error naming sample 5", outs, err)
			}
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
	// A malformed call's healthy chunk still runs; its bad chunk and the
	// lone bad request complete with an error and never reach the kernel.
	s := eng.Stats()
	if s.Errors != rounds*(maxBatch+1) || s.Requests != rounds*(4*maxBatch+1) || s.ExecBatches != rounds*3 {
		t.Errorf("errors/requests/batches = %d/%d/%d, want %d/%d/%d", s.Errors, s.Requests, s.ExecBatches,
			rounds*(maxBatch+1), rounds*(4*maxBatch+1), rounds*3)
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
		if !strings.Contains(s.String(), "2 pipelined chips") {
			t.Errorf("Stats.String() missing chip count: %q", s.String())
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
