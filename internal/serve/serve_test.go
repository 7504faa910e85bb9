package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

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
	if s.Batches == 0 || s.MeanBatch <= 0 {
		t.Errorf("batch stats empty: %+v", s)
	}
	if s.P99LatencyUS < s.P50LatencyUS {
		t.Errorf("p99 %.1f < p50 %.1f", s.P99LatencyUS, s.P50LatencyUS)
	}
}

// TestFlushDeadline proves a lone request under light load is released by
// the deadline, not held hostage for a full batch.
func TestFlushDeadline(t *testing.T) {
	prog := buildProgram(t, 3, []int{8, 6, 2})
	eng, err := New(prog, Options{
		Workers:       1,
		MaxBatch:      64, // never reached by one request
		FlushInterval: 2 * time.Millisecond,
		Mode:          synth.ModeReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := randomInputs(prog, 4, 1)[0]
	start := time.Now()
	if _, err := eng.Infer(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("lone request took %v; deadline flush broken", d)
	}
	s := eng.Stats()
	if s.Batches != 1 || s.Requests != 1 {
		t.Errorf("stats = %+v, want 1 batch / 1 request", s)
	}
}

// TestFlushOnBatchSize proves a full micro-batch flushes without waiting
// for the deadline.
func TestFlushOnBatchSize(t *testing.T) {
	prog := buildProgram(t, 5, []int{8, 6, 2})
	eng, err := New(prog, Options{
		Workers:       2,
		MaxBatch:      4,
		FlushInterval: time.Minute, // deadline effectively disabled
		Mode:          synth.ModeReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inputs := randomInputs(prog, 6, 8)
	done := make(chan error, 1)
	go func() {
		_, err := eng.InferBatch(context.Background(), inputs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("size-based flush never fired; requests stuck behind the deadline")
	}
	if s := eng.Stats(); s.Batches < 2 {
		t.Errorf("Batches = %d, want ≥ 2 for 8 requests at MaxBatch 4", s.Batches)
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

// TestAbandonedRequestShed: a request whose caller gave up while it sat
// in the batcher is dropped by the worker without simulating.
func TestAbandonedRequestShed(t *testing.T) {
	prog := buildProgram(t, 14, []int{8, 6, 2})
	eng, err := New(prog, Options{
		Workers:       1,
		MaxBatch:      64,
		FlushInterval: time.Minute, // parks the request until Close flushes
		Mode:          synth.ModeReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &request{ctx: ctx, input: make([]int, prog.InputSize), enq: time.Now(), done: make(chan struct{})}
	if err := eng.submit(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	cancel() // abandon it while parked behind the one-minute deadline
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-r.done
	if r.err != context.Canceled {
		t.Fatalf("request err = %v, want context.Canceled", r.err)
	}
	s := eng.Stats()
	if s.Shed != 1 || s.Requests != 0 {
		t.Errorf("shed/requests = %d/%d, want 1/0: %s", s.Shed, s.Requests, s)
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

// TestNoisyWorkersDeterministic: the engine programs each worker's
// variation from Seed + worker index, so a one-worker noisy engine is a
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
	s := Stats{Requests: 10, Batches: 2, MeanBatch: 5, Workers: 4}
	for _, want := range []string{"served 10 requests", "2 batches", "4 workers"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("Stats.String() = %q missing %q", s.String(), want)
		}
	}
}

// TestExecBatchStats: workers execute flushed micro-batches as single
// RunBatch calls, and the Stats surface reports the executed batch
// sizes.
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

// TestAutoPathKernelStats: an engine leaves the kernel choice to the
// crossbars, which take the bit-packed kernel on ideally programmed
// devices, and Stats reports those selections and the observed spike
// density — single-chip and sharded. (That the packed kernel equals the
// dense one is pinned below this layer: internal/xbar's property/fuzz
// tests and internal/synth/sparse_test.go.)
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
		if st.SparseKernels == 0 || st.DenseKernels != 0 {
			t.Errorf("chips=%d: %d sparse / %d dense kernels, want > 0 / 0", chips, st.SparseKernels, st.DenseKernels)
		}
		if st.SpikeDensity <= 0 || st.SpikeDensity > 1 {
			t.Errorf("chips=%d SpikeDensity = %g, want in (0,1]", chips, st.SpikeDensity)
		}
		if !strings.Contains(st.String(), "kernels") {
			t.Errorf("Stats.String() = %q missing kernel counters", st.String())
		}
	}
}

// TestInvalidItemDoesNotPoisonBatch: a malformed request sharing a
// micro-batch with healthy ones fails alone; the rest of the batch still
// executes and matches the serial path.
func TestInvalidItemDoesNotPoisonBatch(t *testing.T) {
	prog := buildProgram(t, 15, []int{10, 8, 3})
	good := randomInputs(prog, 16, 3)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	// One worker and a batch size covering all four requests, with a
	// generous flush deadline so they land in one micro-batch.
	eng, err := New(prog, Options{Workers: 1, MaxBatch: 4, FlushInterval: 50 * time.Millisecond, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	outs := make([][]int, 3)
	errs := make([]error, 4)
	for i, in := range good {
		wg.Add(1)
		go func(i int, in []int) {
			defer wg.Done()
			outs[i], errs[i] = eng.Infer(context.Background(), in)
		}(i, in)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[3] = eng.Infer(context.Background(), make([]int, prog.InputSize+2))
	}()
	wg.Wait()
	if errs[3] == nil {
		t.Error("malformed request accepted")
	}
	for i, in := range good {
		if errs[i] != nil {
			t.Fatalf("good request %d: %v", i, errs[i])
		}
		want, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("good[%d][%d] = %d, want %d", i, j, outs[i][j], want[j])
			}
		}
	}
	if s := eng.Stats(); s.Errors != 1 {
		t.Errorf("stats.Errors = %d, want 1", s.Errors)
	}
}

// TestShardedEngineMatchesSingleChip: an engine serving a sharded
// deployment (Chips ≥ 2) must reproduce the single-chip engine bit for
// bit under concurrent load, in spiking and noisy modes. Run under -race
// in CI: all workers share one chip pipeline.
func TestShardedEngineMatchesSingleChip(t *testing.T) {
	prog := buildProgram(t, 21, []int{14, 12, 8, 3})
	inputs := randomInputs(prog, 22, 12)
	for _, mode := range []synth.ExecMode{synth.ModeSpiking, synth.ModeSpikingNoisy} {
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

		sharded, err := New(prog, Options{Workers: 3, MaxBatch: 4, Mode: mode, Seed: 33, Chips: 2})
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

// TestShardedEngineBadInput: pre-flight validation still isolates a bad
// request on the shared pipeline.
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
