package fpsa

import (
	"context"
	"errors"
	"math"
	"math/rand"
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

// randomWeights registers, for m's weight layers in order, a rows×cols
// matrix of each shape in ±1/rows, drawn from a stream seeded by seed.
func randomWeights(m Model, seed int64, shapes ...[2]int) Option {
	rng := rand.New(rand.NewSource(seed))
	weights := make(map[string][][]float64)
	for i, layer := range m.WeightLayers() {
		w := make([][]float64, shapes[i][0])
		for r := range w {
			w[r] = make([]float64, shapes[i][1])
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) / float64(len(w))
			}
		}
		weights[layer] = w
	}
	return WithWeights(weights)
}

// probeConvNet compiles 2×8×8 → conv 8 → ReLU → 2×2 max pool → conv 8 →
// ReLU → 2×2 max pool → GAP → FC 6 → ReLU → FC 4 with seeded weights.
// Both pools run on one shared pairwise-max group pair, so the program's
// stage list has fewer legal cuts than the core-op group chain has.
func probeConvNet(t testing.TB, opts ...Option) *Deployment {
	t.Helper()
	m, err := NewModelBuilder("probe", 2, 8, 8).
		Conv2D(8, 3, 1, 1).ReLU().MaxPool(2, 2).
		Conv2D(8, 3, 1, 1).ReLU().MaxPool(2, 2).
		GlobalAvgPool().FC(6).ReLU().FC(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{randomWeights(m, 64, [2]int{18, 8}, [2]int{72, 8}, [2]int{8, 6}, [2]int{6, 4})}, opts...)
	d, err := Compile(context.Background(), m, opts...)
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

// outputsBatch runs a micro-batch through the net's run path, as
// ClassifyBatch does, and returns each item's raw output spike counts,
// positionally.
func outputsBatch(sn *SpikingNet, features [][]float64, mode ExecMode) ([][]int, error) {
	n := len(sn.prog.OutputRefs)
	flat := make([]int, len(features)*n)
	if err := sn.run(flat, features, mode, false, false); err != nil {
		return nil, err
	}
	outs := make([][]int, len(features))
	for b := range outs {
		outs[b] = flat[b*n : (b+1)*n : (b+1)*n]
	}
	return outs, nil
}

// engineOutputs serves one feature vector through the engine's pool, as
// Classify does, and returns its raw output spike counts.
func engineOutputs(ctx context.Context, e *Engine, features []float64) ([]int, error) {
	out, err := e.eng.Outputs(ctx, [][]float64{features})
	return out, liftErr(err)
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

// TestNewNetRejectsMalformedWeights: a caller-supplied weight matrix of
// the wrong shape, or holding a NaN or an infinity, fails NewNet with
// ErrModelInvalid — for an FC and a conv layer, passed to NewNet directly
// or registered with WithWeights — instead of panicking or failing the
// first inference.
func TestNewNetRejectsMalformedWeights(t *testing.T) {
	matrix := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = float64((r+c)%3-1) / 4
			}
		}
		return w
	}
	mlp, err := NewModelBuilder("mlp", 4, 1, 1).FC(3).ReLU().FC(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := NewModelBuilder("cnn", 1, 4, 4).Conv2D(2, 3, 1, 1).ReLU().GlobalAvgPool().FC(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	set := func(w [][]float64, r, c int, v float64) [][]float64 { w[r][c] = v; return w }
	for _, layer := range []struct {
		name   string
		model  Model
		shapes [][2]int // per weight layer: rows, cols
	}{
		{"fc", mlp, [][2]int{{4, 3}, {3, 2}}},
		{"conv", cnn, [][2]int{{9, 2}, {2, 2}}},
	} {
		rows, cols := layer.shapes[0][0], layer.shapes[0][1]
		for _, tc := range []struct {
			name string
			w    func() [][]float64
		}{
			{"short-row", func() [][]float64 { w := matrix(rows, cols); w[1] = w[1][:cols-1]; return w }},
			{"long-row", func() [][]float64 { w := matrix(rows, cols); w[1] = append(w[1], 0.5); return w }},
			{"nil-row", func() [][]float64 { w := matrix(rows, cols); w[1] = nil; return w }},
			{"empty", func() [][]float64 { return [][]float64{} }},
			{"too-few-rows", func() [][]float64 { return matrix(rows-1, cols) }},
			{"nan", func() [][]float64 { return set(matrix(rows, cols), 1, 1, math.NaN()) }},
			{"+inf", func() [][]float64 { return set(matrix(rows, cols), 1, 1, math.Inf(1)) }},
			{"-inf", func() [][]float64 { return set(matrix(rows, cols), 1, 1, math.Inf(-1)) }},
		} {
			weights := map[string][][]float64{}
			for i, l := range layer.model.WeightLayers() {
				weights[l] = matrix(layer.shapes[i][0], layer.shapes[i][1])
			}
			weights[layer.model.WeightLayers()[0]] = tc.w()
			t.Run(layer.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				d, err := Compile(context.Background(), layer.model)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.NewNet(weights); !errors.Is(err, ErrModelInvalid) {
					t.Errorf("NewNet(w): %v, want ErrModelInvalid", err)
				}
				d, err = Compile(context.Background(), layer.model, WithWeights(weights))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.NewNet(nil); !errors.Is(err, ErrModelInvalid) {
					t.Errorf("WithWeights(w), NewNet(nil): %v, want ErrModelInvalid", err)
				}
			})
		}
	}
}

// TestEngineInheritsDeploymentChips: an engine serves exactly the chip
// count its deployment was compiled across — two for a sharded MLP, one
// otherwise, and six to eight for the probe conv net, whose shared
// pairwise-max groups leave its stage list no more than five legal
// segments; there is no serving-side way to change it. A fleet replica of
// the probe deployment reserves that count and serves.
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
	if eng.Stats().Chips != 2 {
		t.Errorf("engine inherited %d chips, want 2", eng.Stats().Chips)
	}
	if _, err := eng.ClassifyBatch(ctx, test.X[:1]); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	single, _, _ := trainedDeployment(t)
	eng1, err := single.NewEngine(ctx, WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng1.Close()
	if eng1.Stats().Chips != 1 {
		t.Errorf("single-chip deployment served on %d chips, want 1", eng1.Stats().Chips)
	}

	x := make([]float64, 2*8*8)
	for i := range x {
		x[i] = float64(i%7) / 6
	}
	for _, chips := range []int{6, 7, 8} {
		d := probeConvNet(t, WithChips(chips))
		if d.Chips() != chips {
			t.Fatalf("probe net compiled onto %d chips, want %d", d.Chips(), chips)
		}
		eng, err := d.NewEngine(ctx, WithMode(ModeReference))
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().Chips; got != d.Chips() {
			t.Errorf("WithChips(%d): engine serves %d chips, deployment %d", chips, got, d.Chips())
		}
		eng.Close()
		f, err := NewFleet(WithFleetChips(chips))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddModel(ctx, "probe", d, WithModelReplicas(1), WithModelEngine(WithMode(ModeReference))); err != nil {
			t.Fatalf("WithChips(%d): AddModel: %v", chips, err)
		}
		if used := f.Stats().ChipsUsed; used != d.Chips() {
			t.Errorf("WithChips(%d): fleet reserved %d chips for one replica, want %d", chips, used, d.Chips())
		}
		if _, _, err := f.Classify(ctx, "probe", "t", x); err != nil {
			t.Errorf("WithChips(%d): fleet Classify: %v", chips, err)
		}
		f.Close()
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
		eng, err := d.NewEngine(ctx, WithMode(mode))
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
		single, err := compileMLP(t, net).NewEngine(ctx, WithMode(mode))
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

// TestShardPolicyFlowsToEngine: a deployment compiled under each
// WithShardPolicy serves, and its outputs are bit-identical under every
// policy (the compile's cut moves simulated time, never results).
func TestShardPolicyFlowsToEngine(t *testing.T) {
	ctx := context.Background()
	var want []int
	for _, policy := range []ShardPolicy{ShardAuto, ShardMinCut, ShardBalanced} {
		d, _, test := trainedDeployment(t, WithChips(2), WithShardPolicy(policy))
		if d.Chips() != 2 {
			t.Fatalf("policy %v: deployment chips = %d, want 2", policy, d.Chips())
		}
		eng, err := d.NewEngine(ctx, WithMode(ModeReference))
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
	if _, err := eng.ClassifyBatch(ctx, test.X[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ClassifyBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := engineOutputs(ctx, eng, test.X[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Outputs after Close: %v, want ErrClosed", err)
	}
}

// TestModelInvalidTyped: the model taxonomy is matchable.
func TestModelInvalidTyped(t *testing.T) {
	if _, err := Compile(context.Background(), Model{}); !errors.Is(err, ErrModelInvalid) {
		t.Fatalf("zero-model Compile: %v, want ErrModelInvalid", err)
	}
}
