package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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
		if held[i] = eng.pool.take(); held[i] == nil {
			panic("park: the pool has fewer idle executors than asked for")
		}
	}
	return held
}

func unpark(eng *Engine, held []*synth.Executor) {
	for _, ex := range held {
		eng.pool.put(ex)
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
	if got := eng.pool.idle(); got != eng.opts.Workers {
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
	if s.MaxExecBatch > max(maxBatch, maxPass) {
		t.Errorf("MaxExecBatch = %d exceeds max(MaxBatch, maxPass) = %d", s.MaxExecBatch, max(maxBatch, maxPass))
	}
}

// cancelAfterFirstBatch is a context that ends once the engine has executed its
// first batch: a call carrying it is cancelled mid-flight, between two of
// its passes, without a wall clock. Done and Err agree, as a context's
// must: the engine reads Err only once Done has fired.
type cancelAfterFirstBatch struct {
	context.Context
	eng  *Engine
	done chan struct{}
	once *sync.Once
}

func newCancelAfterFirstBatch(eng *Engine) cancelAfterFirstBatch {
	return cancelAfterFirstBatch{context.Background(), eng, make(chan struct{}), new(sync.Once)}
}

func (c cancelAfterFirstBatch) Done() <-chan struct{} {
	if c.eng.stats.execBatches.Load() > 0 {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c cancelAfterFirstBatch) Err() error {
	select {
	case <-c.Done():
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelMidBatch: a batch call whose ctx ends while it runs starts no
// further pass, waits for the passes in flight and only then returns
// ctx's error — so nothing still reads the caller's slices (the test
// scribbles over them at once; -race would see a straggler) and every
// executor is back. Passes it never started count as shed, whole. Inline
// on one executor, whose 136 samples are passes of 64+64+8, and fanned out
// over two, each 68 samples as 64+4.
func TestCancelMidBatch(t *testing.T) {
	const maxBatch, n = 4, 2*maxPass + 8
	prog := buildProgram(t, 37, []int{8, 6, 2})
	for _, workers := range []int{1, 2} {
		eng, err := New(prog, Options{Workers: workers, MaxBatch: maxBatch, Mode: synth.ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		inputs := randomInputs(prog, 39, n)
		outs, err := eng.InferBatch(newCancelAfterFirstBatch(eng), inputs)
		for i := range inputs {
			clear(inputs[i])
			inputs[i] = nil
		}
		if err != context.Canceled || outs != nil {
			t.Errorf("workers=%d: InferBatch = %v, %v; want nil, context.Canceled", workers, outs, err)
		}
		checkPool(t, eng)
		// Each executor the call held ran at most its first pass: one ran for
		// sure, and a second may have started its own before the first
		// finished. Everything else was shed.
		pieces := uint64(min(workers, eng.procs))
		s := eng.Stats()
		if s.Requests+s.Shed != n || s.Requests != s.ExecBatches*maxPass || s.ExecBatches < 1 || s.ExecBatches > pieces || s.Errors != 0 {
			t.Errorf("workers=%d: requests/shed/batches/errors = %d/%d/%d/%d, want requests+shed = %d with 1 to %d whole passes of %d run",
				workers, s.Requests, s.Shed, s.ExecBatches, s.Errors, n, pieces, maxPass)
		}
		if _, err := eng.InferBatch(context.Background(), randomInputs(prog, 40, n)); err != nil {
			t.Errorf("workers=%d: call after a cancelled one: %v", workers, err)
		}
		eng.Close()
	}
}

// TestLentOutEngineRunsOnePass: a 64-sample call on an engine whose other
// executors are all lent out runs on the one it borrows as a single kernel
// pass, not as ⌈64/MaxBatch⌉ passes, and matches the serial executor.
func TestLentOutEngineRunsOnePass(t *testing.T) {
	const workers, n = 4, 64
	prog := buildProgram(t, 57, []int{10, 8, 3})
	inputs := randomInputs(prog, 58, n)
	ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog, Options{Workers: workers, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	held := park(eng, workers-1)
	ctx := context.Background()
	outs, err := eng.InferBatch(ctx, inputs)
	if err != nil || !reflect.DeepEqual(outs, want) {
		t.Errorf("InferBatch = %v, %v; want %v", outs, err, want)
	}
	s := eng.Stats()
	if s.ExecBatches != 1 || s.MaxExecBatch != n {
		t.Errorf("InferBatch of %d: %d passes of at most %d, want 1 of %d", n, s.ExecBatches, s.MaxExecBatch, n)
	}
	if _, err := eng.ClassifyBatch(ctx, randomFeatures(prog, 59, n)); err != nil {
		t.Fatal(err)
	}
	if added := eng.Stats().ExecBatches - s.ExecBatches; added != 1 {
		t.Errorf("ClassifyBatch of %d added %d passes, want 1", n, added)
	}
	unpark(eng, held)
	checkPool(t, eng)
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

// TestLoneCallerFansOut: a lone call of 2×MaxBatch samples on an idle
// two-executor engine takes both executors and each runs half as one pass,
// while a call of at most MaxBatch — or any call with no second processor
// to fan out onto — stays on one.
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
		t.Errorf("one-pass call: kernel calls per executor = %v, want exactly one executor used", k)
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
		t.Errorf("two-piece call: kernel calls per executor = %v, want one pass (%d stages) on each", k, stages)
	}
	if eng.procs == 1 && (k[0] == 0) == (k[1] == 0) {
		t.Errorf("two-piece call on one processor: kernel calls per executor = %v, want one executor used", k)
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

// randomFeatures is n feature vectors for prog, values in [0, 1].
func randomFeatures(prog *synth.Program, seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, prog.InputSize)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	return rows
}

// TestPoolBarging: the pool hands nothing to a parked waiter. With one
// waiter parked on a one-executor engine, a caller that returns its
// executor and borrows again takes it back at once — it barges, as a
// running goroutine does past a sync.Mutex's waiters — and the waiter is
// served once that caller stops. GOMAXPROCS is 1, so the woken waiter
// cannot run between the return and the borrow (where taking the
// executor by its own scan would be legitimate): the outcome is fixed.
// A pool that handed the executor to the waiter would serve it first.
func TestPoolBarging(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog := buildProgram(t, 49, []int{8, 6, 2})
	eng, err := New(prog, Options{Workers: 1, Mode: synth.ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	ex, err := eng.borrow(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := eng.Outputs(ctx, randomFeatures(prog, 50, 1))
		served <- err
	}()
	waitWaiting(eng, 1)
	eng.pool.put(ex)
	again, err := eng.borrow(ctx, 1)
	if err != nil || again != ex {
		t.Fatalf("borrow after a return with a waiter parked = %p, %v; want the returned executor %p", again, err, ex)
	}
	select {
	case err := <-served:
		t.Fatalf("the waiter was served (%v) while the barging caller held the only executor", err)
	default:
	}
	if d := eng.QueueDepth(); d != 1 {
		t.Errorf("QueueDepth = %d while the barging caller runs, want the 1 waiter", d)
	}
	eng.pool.put(again)
	if err := <-served; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if d := eng.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after the waiter was served, want 0", d)
	}
	checkPool(t, eng)
}

// TestPoolLivenessStress: 16 callers on 2 executors, one-pass and
// fanned-out calls, a third of them carrying a ctx that another caller
// cancels when its own call returns — while the victim waits, between its
// passes or after it is done. Every
// call returns, with the engine's outputs or ctx's error; no wake-up is
// lost (a lost one leaves a caller parked beside an idle executor, and
// the test times out naming it); every sample offered is either run or
// shed; and QueueDepth is back to 0 with every executor in the pool.
func TestPoolLivenessStress(t *testing.T) {
	const callers, calls, maxBatch = 16, 30, 4
	prog := deepProgram(t)
	eng, err := New(prog, Options{Workers: 2, MaxBatch: maxBatch, Mode: synth.ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := randomFeatures(prog, 56, 3*maxBatch)
	want, err := eng.Outputs(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	w := len(want) / len(batch)
	var offered atomic.Uint64
	// A cancellable call posts its cancel here, and whichever caller
	// returns next cancels it: while it waits, between its passes or after
	// it is done.
	victims := make(chan context.CancelFunc, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for k := 0; k < calls; k++ {
				n := 1 + rng.Intn(len(batch))
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					select {
					case victims <- cancel:
					default:
					}
				}
				offered.Add(uint64(n))
				out, err := eng.Outputs(ctx, batch[:n])
				cancel()
				select {
				case v := <-victims:
					v()
				default:
				}
				if err != context.Canceled && (err != nil || !reflect.DeepEqual(out, want[:n*w])) {
					t.Errorf("caller %d call %d of %d samples = %v, %v; want %v", c, k, n, out, err, want[:n*w])
				}
			}
		}(c)
	}
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Minute):
		t.Fatalf("callers still blocked after a minute, %d counted as waiting", eng.QueueDepth())
	}
	s := eng.Stats()
	if got := s.Requests - before.Requests + s.Shed; got != offered.Load() || s.Errors != 0 {
		t.Errorf("run + shed = %d samples with %d errors, want the %d offered and none", got, s.Errors, offered.Load())
	}
	if s.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after every call returned, want 0", s.QueueDepth)
	}
	checkPool(t, eng)
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
func deepProgram(b testing.TB) *synth.Program {
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
// shape (4 executors × MaxBatch 8): it fans out over one executor per
// processor, up to 8, and each runs its share as one pass. passes/op is
// the kernel passes per call.
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
	reportPasses(b, eng)
}

// BenchmarkEngineInferBatch64Callers: the same call from GOMAXPROCS
// callers at once — the shape of the serve_mlp_reference workload, where
// callers outnumber neither cores nor executors and the kernel is cheap,
// so whatever the engine adds per call is what is measured. A call that
// finds no idle processor to fan out onto runs as one pass of 64.
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
	reportPasses(b, eng)
}

// reportPasses reports eng's kernel passes per call of b as passes/op. The
// engine is new to b's run, so every pass it counted was one of b.N calls'.
func reportPasses(b *testing.B, eng *Engine) {
	b.ReportMetric(float64(eng.Stats().ExecBatches)/float64(b.N), "passes/op")
}

// BenchmarkEngineInferBatch16Lone: one caller, 16-sample calls in spiking
// mode on the deep program — two 8-sample pieces of real work each, the
// shape offline_conv_spiking has. If the second piece's goroutine is left where
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

// BenchmarkEngineOutputsConvoy: 32 callers of one-row Outputs on 2
// executors at GOMAXPROCS 2, spiking mode on a trained 16-24-4 MLP —
// fleet_mixed's shape, whose models run 2 replicas under 32 closed-loop
// callers. Callers outnumber executors 16 to 1, so nearly every return
// finds a waiter: a pool that hands the executor to a parked waiter makes
// the returning caller's next borrow park too, and the calls convoy.
func BenchmarkEngineOutputsConvoy(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	prog := buildProgram(b, 5, []int{16, 24, 4})
	eng, _ := benchEngine(b, prog, Options{Workers: 2, Mode: synth.ModeSpiking})
	rows := randomFeatures(prog, 6, 64)
	ctx := context.Background()
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			j := i % len(rows)
			if _, err := eng.Outputs(ctx, rows[j:j+1]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineShapes sweeps the executor count under real concurrent
// load: 32 callers of single-sample Infer in spiking mode on a trained
// 16-24-4 MLP, at 1, 4 and 8 executors. The public engine is fixed at 4;
// this is where the other counts are still measured. (MaxBatch splits
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
