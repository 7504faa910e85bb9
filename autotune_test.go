package fpsa

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestParseObjectiveRoundTrip: every objective parses from its String
// spelling and its short form; junk is ErrInvalidArgument.
func TestParseObjectiveRoundTrip(t *testing.T) {
	for _, obj := range []Objective{MinLatency, MinEnergy, MaxThroughputPerChip} {
		got, err := ParseObjective(obj.String())
		if err != nil || got != obj {
			t.Errorf("ParseObjective(%q) = %v, %v", obj.String(), got, err)
		}
	}
	shorts := map[string]Objective{"latency": MinLatency, "energy": MinEnergy, "throughput": MaxThroughputPerChip}
	for s, want := range shorts {
		if got, err := ParseObjective(s); err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseObjective("bogus"); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("ParseObjective(bogus): %v, want ErrInvalidArgument", err)
	}
}

// TestAutotuneMeetsTargetGain pins the headline result: on LeNet the
// tuned assignment beats the best uniform duplication inside the same
// envelope by well over 15% — for energy at 480 PEs (saturating cheap
// layers removes their SMB charge) and for latency at 700 PEs (the
// saturated layers leave the critical fill path). Oracle-only (refine 0)
// keeps the test fast; the values are deterministic.
func TestAutotuneMeetsTargetGain(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		objective Objective
		budget    int
	}{
		{MinEnergy, 480},
		{MinLatency, 700},
	}
	for _, tc := range cases {
		d, rep, err := Autotune(context.Background(), m, tc.objective,
			WithPEBudget(tc.budget), WithAutotuneRefine(0))
		if err != nil {
			t.Fatalf("%v/%d: %v", tc.objective, tc.budget, err)
		}
		if rep.Improvement < 0.15 {
			t.Errorf("%v/%d: improvement %.1f%%, want ≥ 15%%\n%s",
				tc.objective, tc.budget, 100*rep.Improvement, rep)
		}
		if len(rep.LayerDup) == 0 {
			t.Errorf("%v/%d: winner is uniform; a >15%% gain needs a per-layer assignment", tc.objective, tc.budget)
		}
		if rep.TunedPEs > tc.budget {
			t.Errorf("%v/%d: tuned spend %d exceeds budget", tc.objective, tc.budget, rep.TunedPEs)
		}
		if rep.BaselineDup < 1 || rep.BaselinePEs > tc.budget {
			t.Errorf("%v/%d: baseline dup %d / %d PEs out of envelope", tc.objective, tc.budget, rep.BaselineDup, rep.BaselinePEs)
		}
		// The returned deployment realizes the reported assignment.
		if got := d.alloc.TotalPEs; got != rep.TunedPEs {
			t.Errorf("%v/%d: deployment spends %d PEs, report says %d", tc.objective, tc.budget, got, rep.TunedPEs)
		}
	}
}

// TestAutotuneNeverWorseThanUniform: across objectives and budgets the
// tuned oracle value is at least the best uniform value (the uniform
// family is inside the search space, so Improvement cannot go negative).
func TestAutotuneNeverWorseThanUniform(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{54, 120, 480} {
		for _, obj := range []Objective{MinLatency, MinEnergy, MaxThroughputPerChip} {
			_, rep, err := Autotune(context.Background(), m, obj,
				WithPEBudget(budget), WithAutotuneRefine(0))
			if err != nil {
				t.Fatalf("%v/%d: %v", obj, budget, err)
			}
			if rep.Improvement < 0 {
				t.Errorf("%v/%d: tuned is worse than uniform (%.2f%%)", obj, budget, 100*rep.Improvement)
			}
		}
	}
}

// TestAutotuneDeterministicAcrossWorkers: the whole report — winner,
// baseline, pruning counts — is identical at any WithParallelism level.
func TestAutotuneDeterministicAcrossWorkers(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	var reports []AutotuneReport
	for _, workers := range []int{1, 4, 13} {
		_, rep, err := Autotune(context.Background(), m, MinEnergy,
			WithPEBudget(480), WithAutotuneRefine(0), WithParallelism(workers))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Errorf("report differs across worker counts:\n1 worker:  %+v\nvariant %d: %+v", reports[0], i, reports[i])
		}
	}
}

// TestAutotuneValidation: the search rejects nonsense with the taxonomy.
func TestAutotuneValidation(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name      string
		objective Objective
		opts      []Option
		want      error
	}{
		{"unknown objective", Objective(9), nil, ErrInvalidArgument},
		{"negative budget", MinLatency, []Option{WithPEBudget(-1)}, ErrInvalidArgument},
		{"negative refine", MinLatency, []Option{WithAutotuneRefine(-1)}, ErrInvalidArgument},
		{"pinned layer dup", MinLatency, []Option{WithLayerDuplication(map[string]int{"conv1": 2})}, ErrInvalidArgument},
		{"pinned cuts", MinLatency, []Option{WithShardCuts(3)}, ErrInvalidArgument},
		{"infeasible budget", MinLatency, []Option{WithPEBudget(5)}, ErrCapacity},
	}
	for _, tc := range cases {
		if _, _, err := Autotune(ctx, m, tc.objective, tc.opts...); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// Cancellation aborts the search with ctx.Err().
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Autotune(cancelled, m, MinLatency, WithPEBudget(54)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Autotune: %v, want context.Canceled", err)
	}
}

// TestAutotuneRefineSharesCache: with a caller-supplied cache, a repeat
// search place & routes nothing — every finalist sub-compile is a hit.
func TestAutotuneRefineSharesCache(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache(0)
	run := func() AutotuneReport {
		t.Helper()
		_, rep, err := Autotune(context.Background(), m, MinEnergy,
			WithPEBudget(54), WithAutotuneRefine(1), WithCache(cache), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run()
	if first.Refined != 1 || first.CacheMisses == 0 {
		t.Fatalf("first search: refined %d, cache %d hit/%d miss — expected a cold miss",
			first.Refined, first.CacheHits, first.CacheMisses)
	}
	if first.RoutedValue == 0 {
		t.Fatalf("refined search reported no routed value: %+v", first)
	}
	second := run()
	if second.CacheMisses != 0 || second.CacheHits == 0 {
		t.Errorf("repeat search: cache %d hit/%d miss — expected hits only",
			second.CacheHits, second.CacheMisses)
	}
	if second.TunedValue != first.TunedValue || second.RoutedValue != first.RoutedValue {
		t.Errorf("repeat search changed the answer: %+v vs %+v", first, second)
	}
}

// TestLayerDupUniformEquivalence: a WithLayerDuplication map that spells
// out exactly what the global WithDuplication knob would allocate is
// bit-exact with it — same allocation, netlist, perf model, placement
// cost, and classification outputs in all three execution modes.
func TestLayerDupUniformEquivalence(t *testing.T) {
	m, weights := stripesCNN(t)
	for _, dup := range []int{2, 5} {
		d1, err := Compile(context.Background(), m, WithDuplication(dup), WithWeights(weights), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		// Spell the global knob's realized allocation as a per-layer map.
		layerDup := map[string]int{}
		for gi, grp := range d1.coreop.Groups {
			if have, ok := layerDup[grp.Layer]; ok && have != d1.alloc.Dup[gi] {
				t.Fatalf("layer %q groups disagree on dup (%d vs %d); fixture unusable", grp.Layer, have, d1.alloc.Dup[gi])
			}
			layerDup[grp.Layer] = d1.alloc.Dup[gi]
		}
		d2, err := Compile(context.Background(), m, WithLayerDuplication(layerDup), WithWeights(weights), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d1.alloc.Dup, d2.alloc.Dup) || !reflect.DeepEqual(d1.alloc.Iterations, d2.alloc.Iterations) {
			t.Fatalf("dup %d: allocations differ: %v vs %v", dup, d1.alloc, d2.alloc)
		}
		nl1, err := d1.shardNetlist(d1.shards[0])
		if err != nil {
			t.Fatal(err)
		}
		nl2, err := d2.shardNetlist(d2.shards[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nl1, nl2) {
			t.Fatalf("dup %d: netlists differ", dup)
		}
		p1, err := d1.Performance()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := d2.Performance()
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("dup %d: perf summaries differ:\nglobal    %+v\nper-layer %+v", dup, p1, p2)
		}
		s1, err := d1.PlaceAndRoute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s2, err := d2.PlaceAndRoute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s1.WirelengthCost != s2.WirelengthCost || s1.MeanHops != s2.MeanHops {
			t.Errorf("dup %d: place & route differs: %+v vs %+v", dup, s1, s2)
		}
		classifyAll(t, d1, d2, dup)
	}
}

// classifyAll asserts bit-identical outputs from both deployments across
// every execution mode.
func classifyAll(t *testing.T, d1, d2 *Deployment, dup int) {
	t.Helper()
	sn1, err := d1.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := d2.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	sn1.SetSeed(11)
	sn2.SetSeed(11)
	input := make([]float64, 64)
	for i := range input {
		input[i] = float64((i*7)%9) / 9
	}
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		o1, err := sn1.Outputs(input, mode)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := sn2.Outputs(input, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o1, o2) {
			t.Errorf("dup %d mode %v: outputs differ: %v vs %v", dup, mode, o1, o2)
		}
	}
}

// stripesCNN builds the small two-layer CNN fixture (conv + FC with
// hand-set stripe-detector weights) used by the equivalence property:
// its conv groups have reuse > 1, so duplication assignments actually
// vary across layers.
func stripesCNN(t *testing.T) (Model, map[string][][]float64) {
	t.Helper()
	m, err := NewModelBuilder("stripes", 1, 8, 8).
		Conv2D(2, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		GlobalAvgPool().
		FC(2).ReLU().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	layers := m.WeightLayers()
	horiz := []float64{1, 1, 1, 0, 0, 0, -1, -1, -1}
	vert := []float64{1, 0, -1, 1, 0, -1, 1, 0, -1}
	conv := make([][]float64, 9)
	for r := range conv {
		conv[r] = []float64{horiz[r], vert[r]}
	}
	return m, map[string][][]float64{
		layers[0]: conv,
		layers[1]: {{1, 0}, {0, 1}},
	}
}
