package fpsa

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fpsa/internal/serve"
)

// trainedDeployment compiles the shared test MLP, registering the
// trained weights and any extra options.
func trainedDeployment(t testing.TB, opts ...Option) (*Deployment, *TrainedMLP, Dataset) {
	t.Helper()
	ds := SyntheticDataset(5, 300, 12, 3, 0.08)
	train, test := ds.Split(0.7)
	net, err := TrainMLP(5, []int{12, 10, 8, 3}, train, 15)
	if err != nil {
		t.Fatal(err)
	}
	return compileMLP(t, net, opts...), net, test
}

// compileMLP compiles a trained MLP with its weights registered, so
// NewNet(nil) and NewEngine derive from the one handle.
func compileMLP(t testing.TB, net *TrainedMLP, opts ...Option) *Deployment {
	t.Helper()
	opts = append([]Option{WithWeightSource(net.WeightSource())}, opts...)
	d, err := Compile(context.Background(), net.Model(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustNet derives the deployment's compile-registered (memoized) net.
func mustNet(t testing.TB, d *Deployment) *SpikingNet {
	t.Helper()
	sn, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// deployMLP is compileMLP followed by NewNet(nil).
func deployMLP(t testing.TB, net *TrainedMLP, opts ...Option) *SpikingNet {
	t.Helper()
	return mustNet(t, compileMLP(t, net, opts...))
}

// TestNewNetMatchesOldDeploy: the net derived from a Deployment is
// bit-identical to the net of a second, independent compile of the same
// trained model in every exec mode — including the noisy
// programming-variation sequence under a shared seed.
func TestNewNetMatchesOldDeploy(t *testing.T) {
	d, net, test := trainedDeployment(t)
	sn, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	old := deployMLP(t, net)
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		for i := 0; i < 12; i++ {
			a, err := sn.Outputs(test.X[i], mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := old.Outputs(test.X[i], mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("mode %v sample %d: new %v, old %v", mode, i, a, b)
			}
		}
	}
	// Noisy mode: same seed, same variation sequence.
	sn.SetSeed(9)
	old.SetSeed(9)
	for i := 0; i < 6; i++ {
		a, err := sn.Outputs(test.X[i], ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := old.Outputs(test.X[i], ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("noisy sample %d: new %v, old %v", i, a, b)
		}
	}
}

// TestNewNetMemoized: the compile-registered net is built once per
// deployment, so every engine shares one synthesized program; explicit
// weights build independent nets.
func TestNewNetMemoized(t *testing.T) {
	d, _, _ := trainedDeployment(t)
	a, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("NewNet(nil) did not memoize the compile-registered net")
	}
}

// TestNewNetRequiresWeights: a deployment compiled without weights
// cannot derive a net, and says so with the typed error.
func TestNewNetRequiresWeights(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewNet(nil); !errors.Is(err, ErrModelInvalid) {
		t.Fatalf("NewNet without weights: %v, want ErrModelInvalid", err)
	}
	if _, err := d.NewEngine(context.Background()); !errors.Is(err, ErrModelInvalid) {
		t.Fatalf("NewEngine without weights: %v, want ErrModelInvalid", err)
	}
}

// TestEngineInheritsDeploymentChips: an engine serves exactly the chip
// count its deployment was compiled across — two for a sharded
// deployment, one otherwise; there is no serving-side way to change it.
func TestEngineInheritsDeploymentChips(t *testing.T) {
	ctx := context.Background()
	d, _, test := trainedDeployment(t, WithChips(2))
	if d.Chips() != 2 {
		t.Fatalf("deployment chips = %d, want 2", d.Chips())
	}
	eng, err := d.NewEngine(ctx, WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Chips() != 2 {
		t.Errorf("engine inherited %d chips, want 2", eng.Chips())
	}
	if _, err := eng.Classify(ctx, test.X[0]); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	single, _, _ := trainedDeployment(t)
	eng1, err := single.NewEngine(ctx, WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng1.Close()
	if eng1.Chips() != 1 || eng1.Stats().Chips != 1 {
		t.Errorf("single-chip deployment served on %d chips (stats %d), want 1", eng1.Chips(), eng1.Stats().Chips)
	}
}

// TestSingleHandleMatchesTwoStackPath is the acceptance criterion: one
// handle compiles, shards and serves — Compile(ctx, m, WithChips(4),
// WithCache(c)) then d.NewEngine(ctx) — with outputs bit-identical to
// a plain single-chip compile of the same network served on one chip, in
// all three exec modes.
func TestSingleHandleMatchesTwoStackPath(t *testing.T) {
	ctx := context.Background()
	cache := NewCompileCache(0)
	d, net, test := trainedDeployment(t, WithChips(4), WithCache(cache))
	if d.Chips() < 2 {
		t.Fatalf("deployment realized %d chips, want ≥ 2", d.Chips())
	}
	if _, err := d.PlaceAndRoute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Counters(); misses == 0 {
		t.Error("compile cache unused by sharded place&route")
	}
	batch := test.X[:12]
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		eng, err := d.NewEngine(ctx, WithWorkers(1), WithMaxBatch(4), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ClassifyBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()

		// The oracle: the same network on one chip, nothing sharded at
		// compile or at serve time.
		single, err := compileMLP(t, net).NewEngine(ctx, WithWorkers(1), WithMaxBatch(4), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.ClassifyBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		single.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: %d-chip handle %v, single-chip %v", mode, d.Chips(), got, want)
		}
	}
}

// TestShardPolicyFlowsToEngine: the compiled WithShardPolicy governs
// the engine's stage cut too; outputs are bit-identical under every
// policy (the cut moves wall-clock, never results).
func TestShardPolicyFlowsToEngine(t *testing.T) {
	ctx := context.Background()
	var want []int
	for _, policy := range []ShardPolicy{ShardAuto, ShardMinCut, ShardBalanced} {
		d, _, test := trainedDeployment(t, WithChips(2), WithShardPolicy(policy))
		if d.Chips() != 2 {
			t.Fatalf("policy %v: deployment chips = %d, want 2", policy, d.Chips())
		}
		eng, err := d.NewEngine(ctx, WithWorkers(1), WithMode(ModeReference))
		if err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		got, err := eng.ClassifyBatch(ctx, test.X[:10])
		eng.Close()
		if err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v classified %v, other policies %v", policy, got, want)
		}
	}
}

// TestEngineClosedTyped: after Close, engine methods return the typed
// ErrClosed, matchable both as fpsa.ErrClosed and as the internal
// sentinel it wraps — no internal imports needed by callers.
func TestEngineClosedTyped(t *testing.T) {
	ctx := context.Background()
	d, _, test := trainedDeployment(t)
	eng, err := d.NewEngine(ctx, WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = eng.ClassifyBatch(ctx, test.X[:4])
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ClassifyBatch after Close: %v, want ErrClosed", err)
	}
	if !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("ErrClosed does not wrap the internal sentinel: %v", err)
	}
	if _, err := eng.Classify(ctx, test.X[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Classify after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.Outputs(ctx, test.X[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Outputs after Close: %v, want ErrClosed", err)
	}
}

// TestModelInvalidTyped: the model taxonomy is matchable.
func TestModelInvalidTyped(t *testing.T) {
	if _, err := Compile(context.Background(), Model{}); !errors.Is(err, ErrModelInvalid) {
		t.Fatalf("zero-model Compile: %v, want ErrModelInvalid", err)
	}
}
