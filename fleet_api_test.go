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
// two bitstreams.
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
			if ms.Requests < loaders*perLoad {
				t.Fatalf("stats requests = %d, want ≥ %d", ms.Requests, loaders*perLoad)
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
