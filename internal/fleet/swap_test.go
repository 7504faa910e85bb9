package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSwapZeroLoss is the hot-swap property test at the fleet layer:
// under sustained concurrent load, a sequence of swaps loses no request
// — every offered request either completes or sheds with a typed error
// (here admission is sized so nothing sheds) — and every response's
// output marker matches the version that stamped it, so no request ever
// crosses version boundaries mid-flight.
func TestSwapZeroLoss(t *testing.T) {
	f := New(Options{Chips: 64, ScaleInterval: time.Hour})
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
					var res Result
					res, err = f.Infer(ctx, "m", "t", []float64{0.5})
					outs, version = [][]int{res.Output}, res.Version
				} else {
					outs, version, err = f.InferBatch(ctx, "m", "t", [][]float64{{0.5}, {0.5, 0.5}})
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
	f := New(slowTestOptions())
	defer f.Close()
	gate := make(chan struct{})
	old := &fakeSource{marker: 101, window: 4, gate: gate, start: make(chan struct{}, 1)}
	if err := f.AddModel("m", old.Source(), ModelConfig{Replicas: 1, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	type out struct {
		res Result
		err error
	}
	pinned := make(chan out, 1)
	go func() {
		res, err := f.Infer(context.Background(), "m", "t", []float64{1})
		pinned <- out{res, err}
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
	if got.res.Version != 1 || got.res.Output[0] != 101 {
		t.Fatalf("held request got version %d output %v, want the v1 it reached", got.res.Version, got.res.Output)
	}
	// And new traffic lands on v2.
	res, err := f.Infer(context.Background(), "m", "t", []float64{1})
	if err != nil || res.Version != 2 || res.Output[0] != 102 {
		t.Fatalf("post-swap request = %+v, %v; want v2/102", res, err)
	}
	// The old engine was closed by the swap.
	if rs := old.replicas(); len(rs) != 1 || !rs[0].isClosed() {
		t.Fatal("old engine not closed after swap drain")
	}
}

// TestSwapWindowFollowsVersion pins that the quantization window is read
// from the version a request loaded, not from model-level state: after a swap to a
// source with a different window, outputs reflect the new window.
func TestSwapWindowFollowsVersion(t *testing.T) {
	f := New(slowTestOptions())
	defer f.Close()
	if err := f.AddModel("m", (&fakeSource{marker: 1, window: 4}).Source(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	// fakeReplica echoes len(input); QuantizeInput preserves feature count,
	// so this is a proxy for "encoded with its version's window".
	res, err := f.Infer(context.Background(), "m", "t", []float64{0.1, 0.2, 0.3})
	if err != nil || res.Output[1] != 3 {
		t.Fatalf("pre-swap = %+v, %v", res, err)
	}
	if _, err := f.Swap(context.Background(), "m", (&fakeSource{marker: 2, window: 9}).Source()); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Models["m"]; st.Window != 9 {
		t.Fatalf("post-swap window = %d, want 9", st.Window)
	}
}

// TestSwapReplicaFactoryFailure pins that a failed replica build aborts
// the swap, returns its chips, and leaves the old version serving.
func TestSwapReplicaFactoryFailure(t *testing.T) {
	f := New(slowTestOptions())
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
	res, err := f.Infer(context.Background(), "m", "t", []float64{1})
	if err != nil || res.Version != 1 {
		t.Fatalf("old version not serving after aborted swap: %+v, %v", res, err)
	}
}

// TestSwapAfterPanickingRequest: a request that panics under its engine
// gives back everything it held on the way out — its place inside the
// engine above all — so a later Swap, whose close of the old engine waits
// for every call inside, still completes, and the model keeps serving.
func TestSwapAfterPanickingRequest(t *testing.T) {
	f := New(Options{Chips: 16, ScaleInterval: time.Hour, Tenants: map[string]Tenant{"t": {Quota: 1}}})
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
		f.Infer(context.Background(), "m", "t", []float64{0.5})
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
	if res, err := f.Infer(context.Background(), "m", "t", []float64{0.5}); err != nil || res.Version != 2 {
		t.Fatalf("request after the swap = %+v, %v", res, err)
	}
}
