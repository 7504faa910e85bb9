package fpsa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpsa/internal/fleet"
	"fpsa/internal/synth"
)

// fleetTestPair trains and compiles two same-shape, different-weight
// deployments: the model a fleet starts with and the replacement a swap
// installs.
func fleetTestPair(t testing.TB) (d1, d2 *Deployment, test Dataset) {
	t.Helper()
	ds := SyntheticDataset(5, 300, 12, 3, 0.08)
	train, test := ds.Split(0.7)
	compile := func(seed int64) *Deployment {
		net, err := TrainMLP(seed, []int{12, 10, 8, 3}, train, 15)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compile(context.Background(), net.Model(), WithWeightSource(net.WeightSource()), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return compile(5), compile(11), test
}

// TestFleetSwapBitExactUnderLoad is the hot-swap acceptance property, in
// all three exec modes: under sustained concurrent load, Swap loses zero
// requests; every response carries exactly one version stamp; and every
// response is bit-identical to a fresh single-engine serve of the
// deployment its stamp names — so post-swap traffic exactly matches a
// fresh engine over the new deployment, and no request ever mixes the
// two bitstreams. Batch callers ride beside the single ones, through the
// internal fleet's Run for output counts (ClassifyBatch's path, with
// counts in place of classes): every output of a batch reply is
// bit-identical to the fresh engine's for the one version the reply is
// stamped with.
func TestFleetSwapBitExactUnderLoad(t *testing.T) {
	d1, d2, test := fleetTestPair(t)
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		t.Run(mode.String(), func(t *testing.T) {
			// Ground truth: fresh engines over each deployment.
			want := make(map[int][][]int, 2) // version → per-sample outputs
			for v, d := range map[int]*Deployment{1: d1, 2: d2} {
				eng, err := d.NewEngine(context.Background(), WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				outs := make([][]int, len(test.X))
				for i, x := range test.X {
					if outs[i], err = eng.Outputs(context.Background(), x); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				want[v] = outs
			}

			f, err := NewFleet(WithFleetChips(16))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.AddModel(context.Background(), "m", d1,
				WithModelReplicas(2), WithModelQueueDepth(4096),
				WithModelEngine(WithMode(mode))); err != nil {
				t.Fatal(err)
			}

			const loaders = 4
			const perLoad = 120
			var completed, badVersion, badOutput atomic.Uint64
			var firstErr atomic.Value
			var wg sync.WaitGroup
			for l := 0; l < loaders; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					for i := 0; i < perLoad; i++ {
						idx := (l*perLoad + i) % len(test.X)
						out, version, err := f.Outputs(context.Background(), "m", "tenant", test.X[idx])
						if err != nil {
							firstErr.CompareAndSwap(nil, fmt.Errorf("loader %d sample %d: %w", l, i, err))
							return
						}
						completed.Add(1)
						exp, ok := want[version]
						if !ok {
							badVersion.Add(1)
							continue
						}
						if !reflect.DeepEqual(out, exp[idx]) {
							badOutput.Add(1)
						}
					}
				}(l)
			}
			const batchLoaders = 2
			const batchLen = 12
			var batches atomic.Uint64
			for l := 0; l < batchLoaders; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					for i := 0; i < perLoad/batchLen; i++ {
						lo := (l*perLoad + i*batchLen) % (len(test.X) - batchLen)
						outs, version, err := f.fl.Run(context.Background(), "m", "tenant", test.X[lo:lo+batchLen], false)
						if err != nil {
							firstErr.CompareAndSwap(nil, fmt.Errorf("batch loader %d batch %d: %w", l, i, err))
							return
						}
						batches.Add(1)
						exp, ok := want[version]
						if !ok {
							badVersion.Add(1)
							continue
						}
						if !reflect.DeepEqual(outs, slices.Concat(exp[lo:lo+batchLen]...)) {
							badOutput.Add(1)
						}
					}
				}(l)
			}
			time.Sleep(5 * time.Millisecond)
			ev, err := f.Swap(context.Background(), "m", d2)
			if err != nil {
				t.Fatalf("swap: %v", err)
			}
			if ev.FromVersion != 1 || ev.ToVersion != 2 || ev.Replicas != 2 {
				t.Fatalf("swap event = %+v", ev)
			}
			wg.Wait()
			if e := firstErr.Load(); e != nil {
				t.Fatalf("request failed under swap: %v", e)
			}
			if got := completed.Load(); got != loaders*perLoad {
				t.Fatalf("completed %d of %d requests — swap lost requests", got, loaders*perLoad)
			}
			if got := batches.Load(); got != batchLoaders*(perLoad/batchLen) {
				t.Fatalf("completed %d of %d batches — swap lost batches", got, batchLoaders*(perLoad/batchLen))
			}
			if badVersion.Load() != 0 {
				t.Fatalf("%d responses stamped with an unknown version", badVersion.Load())
			}
			if badOutput.Load() != 0 {
				t.Fatalf("%d responses not bit-identical to a fresh engine of their stamped version", badOutput.Load())
			}
			// Post-swap traffic is the new bitstream, exactly.
			for i := 0; i < 8; i++ {
				out, version, err := f.Outputs(context.Background(), "m", "tenant", test.X[i])
				if err != nil || version != 2 {
					t.Fatalf("post-swap sample %d: version %d, err %v", i, version, err)
				}
				if !reflect.DeepEqual(out, want[2][i]) {
					t.Fatalf("post-swap sample %d: %v, want %v", i, out, want[2][i])
				}
			}
			st := f.Stats()
			ms := st.Models["m"]
			if ms.Version != 2 || ms.Errors != 0 || len(st.Swaps) != 1 {
				t.Fatalf("fleet stats after swap = %+v / swaps %d", ms, len(st.Swaps))
			}
			if total := loaders*perLoad + batchLoaders*(perLoad/batchLen)*batchLen; ms.Requests < uint64(total) {
				t.Fatalf("stats requests = %d, want ≥ %d", ms.Requests, total)
			}
		})
	}
}

// TestFleetClassifyBatchMatchesEngine: a fleet model's ClassifyBatch is
// Engine.ClassifyBatch on the same deployment, in every exec mode and on a
// 2-chip deployment, for a batch the engine splits over its executors: the
// classes agree, and so, bit for bit, do the raw outputs beneath them.
// One sample at a time, Fleet.Classify, Engine.Classify and the argmax of
// Fleet.Outputs give the same class for every test vector: both
// Classifys read classes out of the executor's tables, so this pins
// their tie rule — the first maximum — to synth.Argmax's.
func TestFleetClassifyBatchMatchesEngine(t *testing.T) {
	d1, _, test := fleetTestPair(t)
	train, _ := SyntheticDataset(5, 300, 12, 3, 0.08).Split(0.7)
	net, err := TrainMLP(5, []int{12, 10, 8, 3}, train, 15)
	if err != nil {
		t.Fatal(err)
	}
	d2chip, err := Compile(context.Background(), net.Model(), WithWeightSource(net.WeightSource()), WithSeed(5), WithChips(2))
	if err != nil {
		t.Fatal(err)
	}
	if d2chip.Chips() != 2 {
		t.Fatalf("2-chip deployment compiled onto %d chips", d2chip.Chips())
	}
	for _, tc := range []struct {
		name string
		d    *Deployment
		mode ExecMode
	}{
		{"reference", d1, ModeReference},
		{"spiking", d1, ModeSpiking},
		{"noisy", d1, ModeSpikingNoisy},
		{"spiking-2chip", d2chip, ModeSpiking},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.d.NewEngine(context.Background(), WithMode(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.ClassifyBatch(context.Background(), test.X)
			if err != nil {
				t.Fatal(err)
			}
			wantOuts := make([][]int, len(test.X))
			engClasses := make([]int, len(test.X))
			for i, x := range test.X {
				if wantOuts[i], err = eng.Outputs(context.Background(), x); err != nil {
					t.Fatal(err)
				}
				if engClasses[i], err = eng.Classify(context.Background(), x); err != nil {
					t.Fatal(err)
				}
			}
			eng.Close()
			f, err := NewFleet(WithFleetChips(8))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.AddModel(context.Background(), "m", tc.d, WithModelReplicas(2), WithModelEngine(WithMode(tc.mode))); err != nil {
				t.Fatal(err)
			}
			got, version, err := f.ClassifyBatch(context.Background(), "m", "t", test.X)
			if err != nil || version != 1 {
				t.Fatalf("ClassifyBatch: version %d, %v", version, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fleet batch %v\nengine batch %v", got, want)
			}
			flat, _, err := f.fl.Run(context.Background(), "m", "t", test.X, false)
			if err != nil || !reflect.DeepEqual(flat, slices.Concat(wantOuts...)) {
				t.Fatalf("fleet batch outputs differ from the engine's (%v)", err)
			}
			for i, x := range test.X {
				class, _, err := f.Classify(context.Background(), "m", "t", x)
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := f.Outputs(context.Background(), "m", "t", x)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, wantOuts[i]) {
					t.Fatalf("sample %d: Fleet.Outputs %v, Engine.Outputs %v", i, out, wantOuts[i])
				}
				if argmax := synth.Argmax(out); class != engClasses[i] || class != argmax {
					t.Fatalf("sample %d: Fleet.Classify %d, Engine.Classify %d, argmax of Fleet.Outputs %d (%v)",
						i, class, engClasses[i], argmax, out)
				}
			}
			if st := f.Stats().Models["m"]; st.Requests != 4*uint64(len(test.X)) {
				t.Errorf("stats requests = %d, want %d (one per sample)", st.Requests, 4*len(test.X))
			}
		})
	}
}

// TestFleetClassifyBatchAllocs pins what the fleet adds to the engine's
// allocations (TestEngineClassifyBatchAllocs): nothing. A one-pass
// ClassifyBatch allocates only the classes it returns, which the executor
// reads out of its tables; Outputs allocates the one-row batch and the
// counts. Taking the argmax of the counts in the fleet made ClassifyBatch
// 3 (the counts, their row views, the classes); quantizing each request
// in the fleet, into a slab with a result row per sample, made it 7 at 1
// and 8 samples (30 at 64).
func TestFleetClassifyBatchAllocs(t *testing.T) {
	d, _, test := deployTestNet(t)
	ctx := context.Background()
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		f, err := NewFleet()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddModel(ctx, "m", d, WithModelEngine(WithMode(mode))); err != nil {
			t.Fatal(err)
		}
		replicas := f.Stats().Models["m"].Replicas
		for _, n := range []int{1, 8} {
			batch := test.X[:n]
			// Sequential calls take the executors in turn: warm them all.
			for i := 0; i < 2*replicas; i++ {
				if _, _, err := f.ClassifyBatch(ctx, "m", "", batch); err != nil {
					t.Fatal(err)
				}
			}
			if a := testing.AllocsPerRun(20, func() { _, _, _ = f.ClassifyBatch(ctx, "m", "", batch) }); a > 1 {
				t.Errorf("%v: ClassifyBatch of %d: %v allocs, want ≤ 1", mode, n, a)
			}
		}
		if a := testing.AllocsPerRun(20, func() { _, _, _ = f.Outputs(ctx, "m", "", test.X[0]) }); a > 3 {
			t.Errorf("%v: Outputs: %v allocs, want ≤ 3", mode, a)
		}
		f.Close()
	}
}

// TestLoneOutputsAllocs pins the one-row path: Engine.Outputs and
// Fleet.Outputs each allocate the one-row batch and the returned counts,
// nothing else, in reference and spiking mode. The call runs on the
// caller's stack; a heap call object made it 3.
func TestLoneOutputsAllocs(t *testing.T) {
	d, _, test := deployTestNet(t)
	ctx := context.Background()
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		eng, err := d.NewEngine(ctx, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFleet()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddModel(ctx, "m", d, WithModelEngine(WithMode(mode))); err != nil {
			t.Fatal(err)
		}
		x := test.X[0]
		// Warm every executor: which one a sequential call takes is the pool's business.
		for i := 0; i < 8; i++ {
			if _, err := eng.Outputs(ctx, x); err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.Outputs(ctx, "m", "", x); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = eng.Outputs(ctx, x) }); a > 2 {
			t.Errorf("%v: Engine.Outputs: %v allocs, want ≤ 2", mode, a)
		}
		if a := testing.AllocsPerRun(50, func() { _, _, _ = f.Outputs(ctx, "m", "", x) }); a > 2 {
			t.Errorf("%v: Fleet.Outputs: %v allocs, want ≤ 2", mode, a)
		}
		eng.Close()
		f.Close()
	}
}

// TestWrongLengthIsInvalidArgument: a feature vector of the wrong length
// is ErrInvalidArgument at the Engine and the Fleet, as it is at
// SpikingNet, and the message still names the length and, in a batch,
// the item.
func TestWrongLengthIsInvalidArgument(t *testing.T) {
	d, _, test := deployTestNet(t)
	ctx := context.Background()
	eng, err := d.NewEngine(ctx, WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddModel(ctx, "m", d, WithModelReplicas(1), WithModelEngine(WithMode(ModeReference))); err != nil {
		t.Fatal(err)
	}
	short, batch := test.X[0][:4], [][]float64{test.X[0], test.X[0][:4]}
	for _, tc := range []struct {
		name, want string
		call       func() error
	}{
		{"Engine.Classify", "input length 4, want 12", func() error { _, err := eng.Classify(ctx, short); return err }},
		{"Engine.Outputs", "input length 4, want 12", func() error { _, err := eng.Outputs(ctx, short); return err }},
		{"Engine.ClassifyBatch", "batch item 1: input length 4, want 12", func() error { _, err := eng.ClassifyBatch(ctx, batch); return err }},
		{"Fleet.Classify", "input length 4, want 12", func() error { _, _, err := f.Classify(ctx, "m", "", short); return err }},
		{"Fleet.Outputs", "input length 4, want 12", func() error { _, _, err := f.Outputs(ctx, "m", "", short); return err }},
		{"Fleet.ClassifyBatch", "batch item 1: input length 4, want 12", func() error { _, _, err := f.ClassifyBatch(ctx, "m", "", batch); return err }},
	} {
		if err := tc.call(); !errors.Is(err, ErrInvalidArgument) || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrInvalidArgument ending %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetShedErrorsJoinTaxonomy pins the typed shed errors into the
// PR 5 taxonomy: the public sentinels match their internal causes via
// errors.Is, and live sheds surface them.
func TestFleetShedErrorsJoinTaxonomy(t *testing.T) {
	if !errors.Is(ErrOverloaded, fleet.ErrOverloaded) {
		t.Fatal("ErrOverloaded must wrap the internal fleet sentinel")
	}
	if !errors.Is(ErrTenantQuota, fleet.ErrTenantQuota) {
		t.Fatal("ErrTenantQuota must wrap the internal fleet sentinel")
	}

	d1, _, test := fleetTestPair(t)
	f, err := NewFleet(
		WithFleetChips(4),
		WithTenant("capped", QoSGold, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// One replica, queue depth 1: batch-class admission is 1 in flight.
	if err := f.AddModel(context.Background(), "m", d1,
		WithModelReplicas(1), WithModelQueueDepth(1)); err != nil {
		t.Fatal(err)
	}

	// shedOf fires bursts of concurrent requests as tenant until one
	// sheds, and returns the shed error.
	shedOf := func(tenant string) error {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			var wg sync.WaitGroup
			var shed atomic.Value
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, err := f.Outputs(context.Background(), "m", tenant, test.X[i%len(test.X)])
					if err != nil {
						shed.CompareAndSwap(nil, err)
					}
				}(i)
			}
			wg.Wait()
			if err := shed.Load(); err != nil {
				return err.(error)
			}
		}
		t.Fatal("no shed under sustained concurrent burst")
		return nil
	}

	if err := shedOf("anyone"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch burst shed = %v, want ErrOverloaded", err)
	}
	if err := shedOf("capped"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("quota-1 tenant shed = %v, want ErrTenantQuota", err)
	}
	st := f.Stats().Models["m"]
	if st.ShedOverload == 0 || st.ShedQuota == 0 {
		t.Fatalf("shed counters = %+v, want both nonzero", st)
	}

	// Routing and validation errors map into the taxonomy too.
	if _, _, err := f.Outputs(context.Background(), "ghost", "t", test.X[0]); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("unknown model = %v, want ErrInvalidArgument", err)
	}
	if err := f.AddModel(context.Background(), "m2", d1, WithModelReplicas(64)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("oversized pool = %v, want ErrCapacity", err)
	}
	if _, err := f.Swap(context.Background(), "ghost", d1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("swap of unknown model = %v, want ErrInvalidArgument", err)
	}
}

// TestFleetCompileAndSwapReusesCache: a swap whose replacement matches
// an earlier compile's structure rides the fleet's compile cache — the
// second compile is a cache hit, not a fresh place & route.
func TestFleetCompileAndSwapReusesCache(t *testing.T) {
	ds := SyntheticDataset(5, 300, 12, 3, 0.08)
	train, _ := ds.Split(0.7)
	net1, err := TrainMLP(5, []int{12, 10, 8, 3}, train, 15)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := TrainMLP(11, []int{12, 10, 8, 3}, train, 15)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(WithFleetChips(8))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cache := f.Cache()
	d1, err := Compile(context.Background(), net1.Model(), WithWeightSource(net1.WeightSource()), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddModel(context.Background(), "m", d1); err != nil {
		t.Fatal(err)
	}
	hits0, _ := cache.Counters()
	// Same structure, new weights: place & route must come from the cache.
	_, ev, err := f.CompileAndSwap(context.Background(), "m", net2.Model(), WithWeightSource(net2.WeightSource()))
	if err != nil {
		t.Fatal(err)
	}
	if ev.ToVersion != 2 {
		t.Fatalf("swap event = %+v", ev)
	}
	if hits, _ := cache.Counters(); hits <= hits0 {
		t.Fatalf("cache hits %d → %d; the swap recompile missed the compile cache", hits0, hits)
	}
	if _, version, err := f.Outputs(context.Background(), "m", "t", ds.X[0]); err != nil || version != 2 {
		t.Fatalf("post-swap request: version %d, err %v", version, err)
	}
}

// TestFleetQoSClassParsing covers the public class surface used by fleet
// config files.
func TestFleetQoSClassParsing(t *testing.T) {
	for s, want := range map[string]QoSClass{"gold": QoSGold, "silver": QoSSilver, "batch": QoSBatch, "": QoSBatch} {
		got, err := ParseQoSClass(s)
		if err != nil || got != want {
			t.Fatalf("ParseQoSClass(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseQoSClass("plutonium"); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("ParseQoSClass(plutonium) = %v, want ErrInvalidArgument", err)
	}
	if QoSGold.String() != "gold" || QoSBatch.String() != "batch" {
		t.Fatal("QoSClass.String names wrong")
	}
}

// benchmarkOutputsParallel serves test's samples one request at a time
// from 4 concurrent callers at GOMAXPROCS 2 (RunParallel, parallelism
// scaled so the caller count stays near 4 elsewhere).
func benchmarkOutputsParallel(b *testing.B, test Dataset, outputs func(x []float64) error) {
	b.SetParallelism(max(1, 4/runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if err := outputs(test.X[i%len(test.X)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineOutputsParallel is the single-request path below the
// fleet: Engine.Outputs on fleetTestPair's first deployment in reference
// mode, on the engine's 4 executors.
func BenchmarkEngineOutputsParallel(b *testing.B) {
	d, _, test := fleetTestPair(b)
	eng, err := d.NewEngine(context.Background(), WithMode(ModeReference))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	benchmarkOutputsParallel(b, test, func(x []float64) error {
		_, err := eng.Outputs(context.Background(), x)
		return err
	})
}

// BenchmarkFleetOutputsParallel is BenchmarkEngineOutputsParallel's
// deployment and engine behind a fleet: Fleet.Outputs on a model of 4
// replicas (4 executors, as the engine has), so the difference between the two is the fleet's admission,
// routing and accounting.
func BenchmarkFleetOutputsParallel(b *testing.B) {
	d, _, test := fleetTestPair(b)
	f, err := NewFleet()
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.AddModel(context.Background(), "m", d, WithModelReplicas(4), WithModelEngine(WithMode(ModeReference))); err != nil {
		b.Fatal(err)
	}
	benchmarkOutputsParallel(b, test, func(x []float64) error {
		_, _, err := f.Outputs(context.Background(), "m", "", x)
		return err
	})
}
