package fpsa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpsa/internal/fleet"
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
// fleet's InferBatch (whose outputs ClassifyBatch takes the argmax of):
// every output of a batch reply is bit-identical to the fresh engine's for
// the one version the reply is stamped with.
func TestFleetSwapBitExactUnderLoad(t *testing.T) {
	d1, d2, test := fleetTestPair(t)
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		t.Run(mode.String(), func(t *testing.T) {
			// Ground truth: fresh one-worker engines over each deployment.
			want := make(map[int][][]int, 2) // version → per-sample outputs
			for v, d := range map[int]*Deployment{1: d1, 2: d2} {
				eng, err := d.NewEngine(context.Background(), WithWorkers(1), WithMode(mode))
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

			f, err := NewFleet(WithFleetChips(16), WithScaleInterval(time.Hour))
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
						outs, version, err := f.fl.InferBatch(context.Background(), "m", "tenant", test.X[lo:lo+batchLen])
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
						if !reflect.DeepEqual(outs, exp[lo:lo+batchLen]) {
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
// 2-chip deployment, for a batch the engine cuts into many chunks: the
// classes agree, and so, bit for bit, do the raw outputs beneath them.
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
			eng, err := tc.d.NewEngine(context.Background(), WithWorkers(2), WithMode(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.ClassifyBatch(context.Background(), test.X)
			if err != nil {
				t.Fatal(err)
			}
			wantOuts := make([][]int, len(test.X))
			for i, x := range test.X {
				if wantOuts[i], err = eng.Outputs(context.Background(), x); err != nil {
					t.Fatal(err)
				}
			}
			eng.Close()
			f, err := NewFleet(WithFleetChips(8), WithScaleInterval(time.Hour))
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
			outs, _, err := f.fl.InferBatch(context.Background(), "m", "t", test.X)
			if err != nil || !reflect.DeepEqual(outs, wantOuts) {
				t.Fatalf("fleet batch outputs differ from the engine's (%v)", err)
			}
			if st := f.Stats().Models["m"]; st.Requests != 2*uint64(len(test.X)) {
				t.Errorf("stats requests = %d, want %d (one per sample)", st.Requests, 2*len(test.X))
			}
		})
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
		WithScaleInterval(time.Hour),
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
	cache := NewCompileCache(0)
	f, err := NewFleet(WithFleetChips(8), WithFleetCache(cache), WithScaleInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
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
