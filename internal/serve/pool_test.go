package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// park takes n executors out of eng's pool, as n running requests would
// hold them, and returns them for unpark. With the pool empty every
// further call waits, in no particular order, until one comes back — no
// wall clock involved.
func park(eng *Engine, n int) []*synth.Executor {
	held := make([]*synth.Executor, n)
	for i := range held {
		held[i] = <-eng.idle
	}
	return held
}

func unpark(eng *Engine, held []*synth.Executor) {
	for _, ex := range held {
		eng.idle <- ex
	}
}

// waitWaiting spins until n callers are blocked on eng's empty pool
// (callers blocked in Infer give no other signal that they have arrived).
func waitWaiting(eng *Engine, n int) {
	for eng.QueueDepth() < n {
		runtime.Gosched()
	}
}

// checkPool fails the test unless every executor is back in the pool.
func checkPool(t *testing.T, eng *Engine) {
	t.Helper()
	if got := len(eng.idle); got != eng.opts.Workers {
		t.Errorf("%d of %d executors in the pool", got, eng.opts.Workers)
	}
}

// TestQueueMatchesExecutor is the pooled engine's property test (run under
// -race): for call sizes on every side of MaxBatch, InferBatch ≡ n serial
// Infer ≡ synth.Executor.RunBatch, in every mode, at 1 and 4 executors,
// single-chip and sharded — while concurrent single-Infer callers compete
// with the call's pieces for the pool. In noisy mode every executor is
// programmed like the one reference executor, so which executor a request
// borrows never shows in its reply. (The name predates the pool: what it
// pins is the engine ≡ executor equivalence, whatever sits between.)
func TestQueueMatchesExecutor(t *testing.T) {
	const maxBatch = 4
	prog := buildProgram(t, 31, []int{10, 8, 6, 3})
	inputs := randomInputs(prog, 32, 3*maxBatch+2)
	for _, mode := range []synth.ExecMode{synth.ModeReference, synth.ModeSpiking, synth.ModeSpikingNoisy} {
		ropts := synth.RunOptions{Mode: mode}
		if mode == synth.ModeSpikingNoisy {
			// The engine seeds its executors from the first draw of its seed stream.
			ropts.Rng = rand.New(rand.NewSource(rand.New(rand.NewSource(33)).Int63()))
		}
		ex, err := synth.NewExecutor(prog, ropts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.RunBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
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

// cancelAfterFirstBatch is a context that ends once the engine has executed its
// first batch: a call carrying it is cancelled mid-flight, between two of
// its chunks, without a wall clock.
type cancelAfterFirstBatch struct {
	context.Context
	eng *Engine
}

func (c cancelAfterFirstBatch) Err() error {
	if c.eng.stats.execBatches.Load() > 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidBatch: a batch call whose ctx ends while it runs starts no
// further chunk, waits for the passes in flight and only then returns
// ctx's error — so nothing still reads the caller's slices (the test
// scribbles over them at once; -race would see a straggler) and every
// executor is back. Chunks it never started count as shed. Inline on one
// executor and fanned out over two.
func TestCancelMidBatch(t *testing.T) {
	const maxBatch, n = 4, 12
	prog := buildProgram(t, 37, []int{8, 6, 2})
	for _, workers := range []int{1, 2} {
		eng, err := New(prog, Options{Workers: workers, MaxBatch: maxBatch, Mode: synth.ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		inputs := randomInputs(prog, 39, n)
		outs, err := eng.InferBatch(cancelAfterFirstBatch{context.Background(), eng}, inputs)
		for i := range inputs {
			clear(inputs[i])
			inputs[i] = nil
		}
		if err != context.Canceled || outs != nil {
			t.Errorf("workers=%d: InferBatch = %v, %v; want nil, context.Canceled", workers, outs, err)
		}
		checkPool(t, eng)
		// One chunk ran for sure; a second piece may have started its own
		// before the first finished.
		s := eng.Stats()
		if s.Requests+s.Shed != n || s.Shed < maxBatch || s.Requests != s.ExecBatches*maxBatch || s.ExecBatches < 1 || s.Errors != 0 {
			t.Errorf("workers=%d: requests/shed/batches/errors = %d/%d/%d/%d, want requests+shed = %d with whole chunks run",
				workers, s.Requests, s.Shed, s.ExecBatches, s.Errors, n)
		}
		if _, err := eng.InferBatch(context.Background(), randomInputs(prog, 40, n)); err != nil {
			t.Errorf("workers=%d: call after a cancelled one: %v", workers, err)
		}
		eng.Close()
	}
}

// isClosed reports whether Close has begun on eng.
func isClosed(eng *Engine) bool { return eng.state.Load()&closedBit != 0 }

// TestCloseWaitsForWaiters: Close returns only after every call that
// entered before it has returned — a call still waiting for an executor
// when Close starts completes normally — and a call arriving after Close
// began gets ErrClosed at once.
func TestCloseWaitsForWaiters(t *testing.T) {
	prog := buildProgram(t, 35, []int{8, 6, 2})
	inputs := randomInputs(prog, 36, 1)
	in := inputs[0]
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := outs[0]
	eng, err := New(prog, Options{Workers: 1, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	held := park(eng, 1)
	type reply struct {
		out []int
		err error
	}
	waiter := make(chan reply, 1)
	go func() {
		out, err := eng.Infer(context.Background(), in)
		waiter <- reply{out, err}
	}()
	waitWaiting(eng, 1)
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	for !isClosed(eng) {
		runtime.Gosched()
	}
	if _, err := eng.Infer(context.Background(), in); err != ErrClosed {
		t.Errorf("Infer after Close began = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a call was still waiting for an executor")
	default:
	}
	unpark(eng, held)
	if r := <-waiter; r.err != nil || !reflect.DeepEqual(r.out, want) {
		t.Errorf("waiting call = %v, %v; want %v", r.out, r.err, want)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Requests != 1 || s.Errors != 0 || s.Shed != 0 {
		t.Errorf("requests/errors/shed = %d/%d/%d, want 1/0/0", s.Requests, s.Errors, s.Shed)
	}
}

// TestIdleExecutorBesideBusyOne: a request takes whichever executor is
// idle — it never waits behind a busy one while another sits free — and
// waits only once every executor is out.
func TestIdleExecutorBesideBusyOne(t *testing.T) {
	prog := buildProgram(t, 47, []int{8, 6, 2})
	in := randomInputs(prog, 48, 1)[0]
	eng, err := New(prog, Options{Workers: 2, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	busy := park(eng, 1)
	if _, err := eng.Infer(context.Background(), in); err != nil { // would block for ever behind busy
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Requests != 1 || s.QueueDepth != 0 {
		t.Errorf("requests/waiting = %d/%d beside a busy executor, want 1/0", s.Requests, s.QueueDepth)
	}
	unpark(eng, busy)
	checkPool(t, eng)
}

// TestLoneCallerFansOut: a lone call of two chunks on an idle two-executor
// engine takes both executors and each runs a chunk (every piece starts
// with a chunk of its own), while a call of one chunk — or any call with
// no second processor to fan out onto — stays on one.
func TestLoneCallerFansOut(t *testing.T) {
	const maxBatch = 4
	prog := buildProgram(t, 43, []int{8, 6, 2})
	inputs := randomInputs(prog, 44, 2*maxBatch)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: 2, MaxBatch: maxBatch, Mode: synth.ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	kernels := func() (n [2]uint64) {
		for i, ex := range eng.execs {
			ks := ex.KernelStats()
			n[i] = ks.SparseBatches + ks.DenseBatches
		}
		return n
	}
	if _, err := eng.InferBatch(context.Background(), inputs[:maxBatch]); err != nil {
		t.Fatal(err)
	}
	if k := kernels(); (k[0] == 0) == (k[1] == 0) {
		t.Errorf("one-chunk call: kernel calls per executor = %v, want exactly one executor used", k)
	}
	before := kernels()
	outs, err := eng.InferBatch(context.Background(), inputs)
	if err != nil || !reflect.DeepEqual(outs, want) {
		t.Errorf("InferBatch = %v, %v; want %v", outs, err, want)
	}
	stages := uint64(len(prog.Stages))
	k := kernels()
	k[0], k[1] = k[0]-before[0], k[1]-before[1]
	if want := [2]uint64{stages, stages}; eng.procs >= 2 && k != want {
		t.Errorf("two-chunk call: kernel calls per executor = %v, want one chunk (%d stages) on each", k, stages)
	}
	if eng.procs == 1 && (k[0] == 0) == (k[1] == 0) {
		t.Errorf("two-chunk call on one processor: kernel calls per executor = %v, want one executor used", k)
	}
	checkPool(t, eng)
}

// TestPanicReturnsExecutor: a panic under the kernel reaches the goroutine
// that made the request — inline from Infer and from a one-piece batch
// call, re-raised after the other pieces settle from a fanned-out one —
// and the borrowed executors go back all the same, so the engine keeps
// serving and Close still returns.
func TestPanicReturnsExecutor(t *testing.T) {
	const workers, maxBatch = 2, 4
	prog := buildProgram(t, 45, []int{8, 6, 2})
	inputs := randomInputs(prog, 46, 2*maxBatch)
	eng, err := New(prog, Options{Workers: workers, MaxBatch: maxBatch, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	// A zero Executor has no program: RunBatch dereferences nil.
	real := park(eng, workers)
	unpark(eng, []*synth.Executor{new(synth.Executor), new(synth.Executor)})
	panics := func(name string, call func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic reached the caller", name)
			}
			checkPool(t, eng)
		}()
		call()
	}
	ctx := context.Background()
	panics("Infer", func() { eng.Infer(ctx, inputs[0]) })
	panics("one-piece InferBatch", func() { eng.InferBatch(ctx, inputs[:maxBatch]) })
	panics("fanned-out InferBatch", func() { eng.InferBatch(ctx, inputs) })

	park(eng, workers)
	unpark(eng, real)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.InferBatch(ctx, inputs); err != nil {
				t.Errorf("call after the panics: %v", err)
			}
		}()
	}
	wg.Wait()
	checkPool(t, eng)
	if err := eng.Close(); err != nil { // every panicked call left the engine
		t.Fatal(err)
	}
}

// benchEngine builds an engine over prog and 64 inputs for it.
func benchEngine(b *testing.B, prog *synth.Program, opts Options) (*Engine, [][]int) {
	b.Helper()
	eng, err := New(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng, randomInputs(prog, 42, 64)
}

// mlpProgram is a small trained MLP; in reference mode it stands in for
// the benchmark's serving MLP (≈ 0.6 µs of kernel a sample).
func mlpProgram(b *testing.B) *synth.Program { return buildProgram(b, 41, []int{16, 12, 4}) }

// deepProgram is nine 64-wide layers with their initial weights: ≈ 50 µs a
// sample in spiking mode, so a 16-sample call is the better part of a
// millisecond of kernel, as the benchmark's conv net's is.
func deepProgram(b *testing.B) *synth.Program {
	b.Helper()
	net, err := trainer.NewMLP(rand.New(rand.NewSource(41)), []int{64, 64, 64, 64, 64, 64, 64, 64, 64, 8})
	if err != nil {
		b.Fatal(err)
	}
	return compileMLP(b, net)
}

// BenchmarkNewEngineSharded: building a 2-chip engine over the 16-48-48-4
// MLP that fleet_mixed shards, with 1 and 4 executors. B/op is what the
// engine's programmed crossbars cost in host memory.
func BenchmarkNewEngineSharded(b *testing.B) {
	net, err := trainer.NewMLP(rand.New(rand.NewSource(41)), []int{16, 48, 48, 4})
	if err != nil {
		b.Fatal(err)
	}
	prog := compileMLP(b, net)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New(prog, Options{Workers: workers, Chips: 2, Mode: synth.ModeSpiking})
				if err != nil {
					b.Fatal(err)
				}
				eng.Close()
			}
		})
	}
}

// BenchmarkEngineLoneInfer: one request in flight at a time on an idle
// engine — what borrowing an executor costs over running the kernel.
func BenchmarkEngineLoneInfer(b *testing.B) {
	eng, inputs := benchEngine(b, mlpProgram(b), Options{Workers: 1, Mode: synth.ModeReference})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(ctx, inputs[i%len(inputs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInferBatch64: a lone 64-sample call on the default engine
// shape (4 executors × MaxBatch 8): 8 chunks fanned out over the pool.
func BenchmarkEngineInferBatch64(b *testing.B) {
	eng, inputs := benchEngine(b, mlpProgram(b), Options{Workers: 4, MaxBatch: 8, Mode: synth.ModeReference})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.InferBatch(ctx, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInferBatch64Callers: the same call from GOMAXPROCS
// callers at once — the shape of the serve_mlp_reference workload, where
// callers outnumber neither cores nor executors and the kernel is cheap,
// so whatever the engine adds per call is what is measured.
func BenchmarkEngineInferBatch64Callers(b *testing.B) {
	eng, inputs := benchEngine(b, mlpProgram(b), Options{Workers: 4, MaxBatch: 8, Mode: synth.ModeReference})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.InferBatch(ctx, inputs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineInferBatch16Lone: one caller, 16-sample calls in spiking
// mode on the deep program — two chunks of real work each, the shape
// offline_conv_spiking has. If the second chunk's goroutine is left where
// only a timer-driven steal finds it (see InferBatch), the call's tail
// shows it before its mean does, so each call is timed and the p90
// reported beside ns/op.
func BenchmarkEngineInferBatch16Lone(b *testing.B) {
	eng, inputs := benchEngine(b, deepProgram(b), Options{Workers: 4, MaxBatch: 8, Mode: synth.ModeSpiking})
	ctx := context.Background()
	calls := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 16) % len(inputs)
		start := time.Now()
		if _, err := eng.InferBatch(ctx, inputs[lo:lo+16]); err != nil {
			b.Fatal(err)
		}
		calls = append(calls, float64(time.Since(start))/float64(time.Microsecond))
	}
	b.StopTimer()
	sort.Float64s(calls)
	b.ReportMetric(nearestRank(calls, 0.90), "p90-us/op")
}

// BenchmarkEngineShapes sweeps the executor count under real concurrent
// load: 32 callers of single-sample Infer in spiking mode on a trained
// 16-24-4 MLP, at 1, 4 and 8 executors. The public engine is fixed at 4;
// this is where the other counts are still measured. (The chunk size cuts
// only batch calls; BenchmarkEngineInferBatch64 covers those.)
func BenchmarkEngineShapes(b *testing.B) {
	prog := buildProgram(b, 5, []int{16, 24, 4})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			eng, inputs := benchEngine(b, prog, Options{Workers: workers, Mode: synth.ModeSpiking})
			ctx := context.Background()
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, err := eng.Infer(ctx, inputs[i%len(inputs)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
