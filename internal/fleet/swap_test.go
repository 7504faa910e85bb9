package fleet

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpsa/internal/serve"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// TestSwapZeroLoss is the hot-swap property test at the fleet layer:
// under sustained concurrent load, a sequence of swaps loses no request
// — every offered request either completes or sheds with a typed error
// (here admission is sized so nothing sheds) — and every response's
// output marker matches the version that stamped it, so no request ever
// crosses version boundaries mid-flight.
func TestSwapZeroLoss(t *testing.T) {
	f := New(Options{Chips: 64})
	defer f.Close()

	// marker[v] is the output stamp of version v's replicas.
	marker := func(v int) int { return 100 + v }
	srcFor := func(v int) *fakeSource { return &fakeSource{marker: marker(v), window: 4} }
	if err := f.AddModel("m", srcFor(1).Source(), ModelConfig{Replicas: 3, QueueDepth: 100000}); err != nil {
		t.Fatal(err)
	}

	const (
		loaders  = 8
		perLoad  = 400
		swaps    = 5
		deadline = 30 * time.Second
	)
	var (
		completed atomic.Uint64
		mismatch  atomic.Uint64
		failed    atomic.Uint64
	)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	// Odd loaders send batches of two: a batch is retried whole, and every
	// output in it carries the one version it is stamped with.
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLoad; i++ {
				var outs [][]int
				var version int
				var err error
				if l%2 == 0 {
					var out []int
					out, version, err = infer(ctx, f, "m", "t", []float64{0.5})
					outs = [][]int{out}
				} else {
					outs, version, err = inferBatch(ctx, f, "m", "t", [][]float64{{0.5}, {0.5, 0.5}})
				}
				if err != nil {
					failed.Add(1)
					continue
				}
				completed.Add(1)
				for _, out := range outs {
					if len(out) == 0 || out[0] != marker(version) {
						mismatch.Add(1)
					}
				}
			}
		}()
	}
	for v := 2; v <= swaps+1; v++ {
		time.Sleep(2 * time.Millisecond)
		ev, err := f.Swap(ctx, "m", srcFor(v).Source())
		if err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
		if ev.FromVersion != v-1 || ev.ToVersion != v || ev.Replicas != 3 {
			t.Fatalf("swap event = %+v", ev)
		}
	}
	wg.Wait()

	if got := completed.Load(); got != loaders*perLoad {
		t.Fatalf("completed %d of %d requests (%d failed) — swap lost requests",
			got, loaders*perLoad, failed.Load())
	}
	if mismatch.Load() != 0 {
		t.Fatalf("%d responses whose output marker disagreed with their version stamp", mismatch.Load())
	}
	st := f.Stats()
	ms := st.Models["m"]
	if ms.Requests != loaders/2*perLoad*(1+2) || ms.Errors != 0 || ms.ShedOverload != 0 || ms.ShedQuota != 0 {
		t.Fatalf("model stats = %+v", ms)
	}
	if ms.Version != swaps+1 {
		t.Fatalf("final version = %d, want %d", ms.Version, swaps+1)
	}
	if len(st.Swaps) != swaps {
		t.Fatalf("swap history has %d events, want %d", len(st.Swaps), swaps)
	}
	// Chips must balance: the 3 swap-transient chips went back.
	if used := f.Stats().ChipsUsed; used != 3 {
		t.Fatalf("chips used after swaps = %d, want 3", used)
	}
}

// TestSwapDrainsOldVersion holds a request inside the old engine, swaps,
// and checks the swap waits for it and the request still completes on —
// and is stamped with — the version it reached.
func TestSwapDrainsOldVersion(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	gate := make(chan struct{})
	old := &fakeSource{marker: 101, window: 4, gate: gate, start: make(chan struct{}, 1)}
	if err := f.AddModel("m", old.Source(), ModelConfig{Replicas: 1, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	type reply struct {
		out     []int
		version int
		err     error
	}
	pinned := make(chan reply, 1)
	go func() {
		out, version, err := infer(context.Background(), f, "m", "t", []float64{1})
		pinned <- reply{out, version, err}
	}()
	<-old.start // the request is inside the v1 replica

	swapped := make(chan error, 1)
	go func() {
		_, err := f.Swap(context.Background(), "m", (&fakeSource{marker: 102, window: 4}).Source())
		swapped <- err
	}()
	select {
	case <-swapped:
		t.Fatal("swap returned while a request was inside the old engine")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	got := <-pinned
	if got.err != nil {
		t.Fatalf("held request dropped by swap: %v", got.err)
	}
	if got.version != 1 || got.out[0] != 101 {
		t.Fatalf("held request got version %d output %v, want the v1 it reached", got.version, got.out)
	}
	// And new traffic lands on v2.
	out, version, err := infer(context.Background(), f, "m", "t", []float64{1})
	if err != nil || version != 2 || out[0] != 102 {
		t.Fatalf("post-swap request = %v version %d, %v; want v2/102", out, version, err)
	}
	// The old engine was closed by the swap.
	if rs := old.replicas(); len(rs) != 1 || !rs[0].isClosed() {
		t.Fatal("old engine not closed after swap drain")
	}
}

// TestSwapKeepsLatencies: a model's percentiles are its engines' own
// records, merged — after a swap, exactly the merged histogram of the
// retired engine and the live one, and still exactly that after Close
// (which retires nothing, so nothing counts twice). The retired engine
// carries 1000 extra observations of 1 ms and the live one 800 of 1 s, so
// the p50 is 1 ms, and reads 1 s if the fleet drops the retired record or
// counts the live one twice.
func TestSwapKeepsLatencies(t *testing.T) {
	f := New(Options{Chips: 16})
	old, next := &fakeSource{marker: 1, window: 4}, &fakeSource{marker: 2, window: 4}
	if err := f.AddModel("m", old.Source(), ModelConfig{Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serveSome := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := infer(ctx, f, "m", "t", []float64{1}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := inferBatch(ctx, f, "m", "t", [][]float64{{1}, {2}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	serveSome(10)
	for i := 0; i < 1000; i++ {
		old.replicas()[0].lat.Record(time.Millisecond)
	}
	if _, err := f.Swap(ctx, "m", next.Source()); err != nil {
		t.Fatal(err)
	}
	serveSome(10)
	for i := 0; i < 800; i++ {
		next.replicas()[0].lat.Record(time.Second)
	}
	check := func(when string) {
		t.Helper()
		var want serve.LatencyHistogram
		old.replicas()[0].MergeLatency(&want)
		next.replicas()[0].MergeLatency(&want)
		w50, w99, w999 := want.Percentiles()
		st := f.Stats().Models["m"]
		if st.P50LatencyUS != w50 || st.P99LatencyUS != w99 || st.P999LatencyUS != w999 {
			t.Errorf("%s: p50/p99/p999 = %g/%g/%g µs, both engines merged read %g/%g/%g",
				when, st.P50LatencyUS, st.P99LatencyUS, st.P999LatencyUS, w50, w99, w999)
		}
		if math.Abs(st.P50LatencyUS-1000) > 1000.0/64 {
			t.Errorf("%s: p50 = %g µs, want the retired engine's 1 ms within 1/64", when, st.P50LatencyUS)
		}
	}
	check("after the swap")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
}

// TestSwapWindowFollowsVersion pins that the window Stats reports is the
// current version's, not model-level state: after a swap to a source with
// a different window, Stats reports the new one. Requests never read it —
// each engine quantizes against its own program's window.
func TestSwapWindowFollowsVersion(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	if err := f.AddModel("m", (&fakeSource{marker: 1, window: 4}).Source(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	// fakeReplica echoes each sample's length: the features reach the
	// engine as sent, for it to quantize.
	out, _, err := infer(context.Background(), f, "m", "t", []float64{0.1, 0.2, 0.3})
	if err != nil || out[1] != 3 {
		t.Fatalf("pre-swap = %v, %v", out, err)
	}
	if _, err := f.Swap(context.Background(), "m", (&fakeSource{marker: 2, window: 9}).Source()); err != nil {
		t.Fatal(err)
	}
	// The model was registered at the default pool size, and the swap kept it.
	if st := f.Stats().Models["m"]; st.Window != 9 || st.Replicas != 4 {
		t.Fatalf("post-swap window = %d, replicas = %d; want 9 and 4", st.Window, st.Replicas)
	}
}

// TestSwapReplicaFactoryFailure pins that a failed replica build aborts
// the swap, returns its chips, and leaves the old version serving.
func TestSwapReplicaFactoryFailure(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	if err := f.AddModel("m", (&fakeSource{marker: 1, window: 4}).Source(), ModelConfig{Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	bad := &fakeSource{marker: 2, window: 4}
	bad.fail = context.DeadlineExceeded // any error will do
	if _, err := f.Swap(context.Background(), "m", bad.Source()); err == nil {
		t.Fatal("swap with failing factory succeeded")
	}
	if used := f.Stats().ChipsUsed; used != 2 {
		t.Fatalf("chips used after aborted swap = %d, want 2", used)
	}
	out, version, err := infer(context.Background(), f, "m", "t", []float64{1})
	if err != nil || version != 1 {
		t.Fatalf("old version not serving after aborted swap: %v version %d, %v", out, version, err)
	}
}

// TestSwapAfterPanickingRequest: a request that panics under its engine
// gives back everything it held on the way out — its place inside the
// engine above all — so a later Swap, whose close of the old engine waits
// for every call inside, still completes, and the model keeps serving.
func TestSwapAfterPanickingRequest(t *testing.T) {
	f := New(Options{Chips: 16, Tenants: map[string]Tenant{"t": {Quota: 1}}})
	defer f.Close()
	old := &fakeSource{marker: 1, window: 4}
	if err := f.AddModel("m", old.Source(), ModelConfig{Replicas: 1, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	old.replicas()[0].poison.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the replica's panic did not reach the caller")
			}
		}()
		infer(context.Background(), f, "m", "t", []float64{0.5})
	}()
	m, err := f.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.inflight.Load(); n != 0 {
		t.Fatalf("after the panic: model in flight %d, want 0", n)
	}
	// With a call left inside the old engine this Swap would wait for ever.
	ev, err := f.Swap(context.Background(), "m", (&fakeSource{marker: 2, window: 4}).Source())
	if err != nil || ev.ToVersion != 2 {
		t.Fatalf("Swap after a panicking request = %+v, %v", ev, err)
	}
	// Quota 1 and admission depth 1: a leaked place would shed this one.
	if out, version, err := infer(context.Background(), f, "m", "t", []float64{0.5}); err != nil || version != 2 {
		t.Fatalf("request after the swap = %v version %d, %v", out, version, err)
	}
}

// TestNoisyResizeBitIdentical: every executor of a noisy engine is
// programmed with the same variation, so a model's replies do not depend
// on its pool size or on which replica served them. A one-replica and a
// four-replica model of the same bitstream and seed — the second swapped,
// under load, onto a fresh engine of that source — reply to every input
// exactly as a fresh one-executor engine does.
func TestNoisyResizeBitIdentical(t *testing.T) {
	// Trained, so that outputs are not all zero and noise shows in them.
	rng := rand.New(rand.NewSource(5))
	net, err := trainer.NewMLP(rng, []int{8, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	net.Train(rng, trainer.SyntheticClusters(rng, 200, 8, 2, 0.08), trainer.TrainOptions{Epochs: 10})
	copts := synth.DefaultOptions()
	copts.Weights = net.WeightSource()
	_, prog, err := synth.Compile(net.Graph("fleet-test"), copts)
	if err != nil {
		t.Fatal(err)
	}
	opts := serve.Options{MaxBatch: 4, Mode: synth.ModeSpikingNoisy, Seed: 61}
	src := Source{Window: prog.Params.SamplingWindow(), New: func(replicas int) (Replica, error) {
		o := opts
		o.Workers = replicas
		return serve.New(prog, o)
	}}

	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, prog.InputSize)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	fresh, err := serve.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(xs))
	for i, x := range xs {
		if want[i], err = fresh.Outputs(context.Background(), [][]float64{x}); err != nil {
			t.Fatal(err)
		}
	}
	fresh.Close()

	f := New(Options{Chips: 16})
	defer f.Close()
	for name, n := range map[string]int{"one": 1, "four": 4} {
		if err := f.AddModel(name, src, ModelConfig{Replicas: n}); err != nil {
			t.Fatal(err)
		}
	}
	// serveAll sends every input from 8 concurrent callers, so a
	// four-replica model answers from more than one executor.
	serveAll := func(model, phase string) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, x := range xs {
					out, _, err := infer(context.Background(), f, model, "t", x)
					if err != nil {
						t.Errorf("%s %s: %v", model, phase, err)
						return
					}
					if !reflect.DeepEqual(out, want[i]) {
						t.Errorf("%s %s: input %d = %v, a fresh one-executor engine gives %v", model, phase, i, out, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	serveAll("one", "on one replica")
	serveAll("four", "on four replicas")
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveAll("four", "during the swap")
	}()
	if _, err := f.Swap(context.Background(), "four", src); err != nil {
		t.Fatal(err)
	}
	<-done
	serveAll("four", "after the swap")
	if st := f.Stats().Models["four"]; st.Replicas != 4 || st.Version != 2 {
		t.Fatalf("after the swap: %d replicas at version %d, want 4 at version 2", st.Replicas, st.Version)
	}
}
