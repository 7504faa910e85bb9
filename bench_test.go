package fpsa

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/experiments"
	"fpsa/internal/synth"
)

// One benchmark per paper artifact: `go test -bench=.` times each driver
// behind the evaluation's tables and figures. Their numbers against the
// paper's are TestFidelity's rows in docs/FIDELITY.md.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(device.Params45nm)
		if len(rows) != 7 {
			b.Fatal("table 1 rows")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(device.Params45nm)
		if r.DensityGain < 30 {
			b.Fatal("density gain")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(64)
		if err != nil || len(rows) != 7 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.SpeedupAtMatchedArea < 100 {
			b.Fatal("speedup collapsed")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7()
		if err != nil || len(rows) != 3 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(experiments.Figure9Options{Trials: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// Supporting micro-benchmarks: the stack's heavy phases in isolation.

func BenchmarkCompileVGG16(b *testing.B) {
	m, err := LoadBenchmark("VGG16")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(context.Background(), m, WithDuplication(64)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFrontEndZoo is the front-end pass of the compile
// benchmark: the seven zoo models at duplication 16, each compiled,
// evaluated and inventoried without being placed — so no netlist is built
// (445,530 nets on VGG16 alone); allocs/op is what shows if one comes back.
func BenchmarkCompileFrontEndZoo(b *testing.B) {
	ctx := context.Background()
	var zoo []Model
	for _, name := range BenchmarkModels() {
		m, err := LoadBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		zoo = append(zoo, m)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, m := range zoo {
			d, err := Compile(ctx, m, WithDuplication(16))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Performance(); err != nil {
				b.Fatal(err)
			}
			if pes, _, _ := d.Blocks(); pes == 0 {
				b.Fatal("empty inventory")
			}
		}
	}
}

// BenchmarkPlaceAndRoute compares the classic single-seed annealer with
// the multi-seed portfolio on the CNN example deployment (LeNet at 4×
// duplication, as in ExampleDeployment_PlaceAndRoute). The four portfolio runs
// anneal concurrently on four workers, so with four free cores the
// portfolio returns a lower-cost placement (compare the wirelength-cost
// metric across the sub-benchmarks) in roughly one serial run's
// wall-clock; on fewer cores the runs serialize and the cost win costs
// proportional time.
func BenchmarkPlaceAndRoute(b *testing.B) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...Option) {
		d, err := Compile(context.Background(), m, opts...)
		if err != nil {
			b.Fatal(err)
		}
		var cost float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats, err := d.PlaceAndRoute(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			cost = stats.WirelengthCost
		}
		b.ReportMetric(cost, "wirelength-cost")
	}
	b.Run("serial", func(b *testing.B) {
		run(b, WithDuplication(4), WithSeed(2), WithParallelism(1))
	})
	b.Run("portfolio4", func(b *testing.B) {
		run(b, WithDuplication(4), WithSeed(2), WithPlacementSeeds(4), WithParallelism(4))
	})
}

// TestPortfolioPlacementAtLeastAsGood pins the benchmark's claim: on the
// CNN example deployment the 4-seed portfolio's winning placement never
// costs more than the serial annealer's (both are deterministic, so this
// is a stable property, not a flaky sample).
func TestPortfolioPlacementAtLeastAsGood(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	pr := func(opts ...Option) PRStats {
		t.Helper()
		d, err := Compile(context.Background(), m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.PlaceAndRoute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := pr(WithDuplication(4), WithSeed(2), WithParallelism(1))
	portfolio := pr(WithDuplication(4), WithSeed(2), WithPlacementSeeds(4), WithParallelism(4))
	if portfolio.WirelengthCost > serial.WirelengthCost {
		t.Errorf("portfolio cost %.0f worse than serial %.0f", portfolio.WirelengthCost, serial.WirelengthCost)
	}
	if portfolio.Restarts != 4 {
		t.Errorf("Restarts = %d, want 4", portfolio.Restarts)
	}
}

func BenchmarkSpikingInference(b *testing.B) {
	d, train := deployBenchNet(b)
	sn := mustNet(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.Classify(train.X[i%len(train.X)], ModeSpiking); err != nil {
			b.Fatal(err)
		}
	}
}

// deployNoisyFaulted builds the shape offline_mlp_noisy_sparse runs: the
// bench MLP compiled under a 1 % stuck-cell model, and a batch of 64 to
// classify in ModeSpikingNoisy — on a SpikingNet, where every call
// redraws both crossbars' conductances in place with a fresh variation
// draw, or on an Engine, which programs once.
func deployNoisyFaulted(tb testing.TB) (*Deployment, [][]float64) {
	tb.Helper()
	d, train := deployBenchNet(tb, WithFaultModel(0.01, 1))
	return d, train.X[:64]
}

// BenchmarkClassifyBatchNoisyFaulted is the re-program-per-call path as the
// public API runs it. Its allocs/op is the number to watch: one, the
// returned classes, because the net redraws its one executor in place, the
// fault masks are derived once per deployment and programming a weight
// allocates nothing.
func BenchmarkClassifyBatchNoisyFaulted(b *testing.B) {
	d, batch := deployNoisyFaulted(b)
	sn := mustNet(b, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.ClassifyBatch(batch, ModeSpikingNoisy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkEngineNoisyDense serves the same deployment and the same 64
// samples from a noisy one-executor Engine: programmed once, so a call
// costs the spiking kernel alone, on noisy crossbars whose first layer sees
// an input density above 0.30 — the traffic a per-call density threshold
// used to send to the dense cycle walk (docs/ARCHITECTURE.md, "Decision
// recorded: the kernel does not choose").
func BenchmarkEngineNoisyDense(b *testing.B) {
	d, batch := deployNoisyFaulted(b)
	ctx := context.Background()
	eng := engineWith(b, d, 1, ModeSpikingNoisy)
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ClassifyBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/call")
}

// TestClassifyBatchNoisyFaultedAllocs bounds what one noisy call allocates.
// A make per weight would cost (16·24 + 24·4)·4 ≈ 2,000 allocations a call,
// a fault-map derivation per call a few dozen more and a new executor per
// call about forty, so any of them creeping in fails here — on a count that
// repeats exactly — rather than in a noisy wall-clock gate. A call makes
// one, the returned classes, under either float-walk body: the net keeps
// its executor, and a redraw reuses every buffer of it.
func TestClassifyBatchNoisyFaultedAllocs(t *testing.T) {
	d, batch := deployNoisyFaulted(t)
	sn := mustNet(t, d)
	got := testing.AllocsPerRun(10, func() {
		if _, err := sn.ClassifyBatch(batch, ModeSpikingNoisy); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 3
	if got > limit {
		t.Fatalf("ClassifyBatch(noisy, faulted) allocates %v times per call, want ≤ %d", got, limit)
	}
}

// deployBenchNet builds the shared MLP serving workload: the serial
// BenchmarkSpikingInference loop and the BenchmarkEngine variants all
// classify the same deployed network, so samples/op compare directly.
func deployBenchNet(tb testing.TB, opts ...Option) (*Deployment, Dataset) {
	tb.Helper()
	ds := SyntheticDataset(5, 300, 16, 4, 0.08)
	train, _ := ds.Split(0.9)
	net, err := TrainMLP(5, []int{16, 24, 4}, train, 20)
	if err != nil {
		tb.Fatal(err)
	}
	return compileMLP(tb, net, opts...), train
}

// deployConvBenchNet builds a small convolutional workload
// (conv→pool→gap→fc with random weights) so the batched-execution
// benchmarks cover the time-multiplexed shared-group path, not just FC
// stages.
func deployConvBenchNet(b *testing.B) *SpikingNet {
	b.Helper()
	m, err := NewModelBuilder("convbench", 2, 10, 10).
		Conv2D(8, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		GlobalAvgPool().
		FC(4).ReLU().
		Build()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mk := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) / float64(rows)
			}
		}
		return w
	}
	layers := m.WeightLayers()
	d, err := Compile(context.Background(), m, WithWeights(map[string][][]float64{
		layers[0]: mk(2*3*3, 8),
		layers[1]: mk(8, 4),
	}))
	if err != nil {
		b.Fatal(err)
	}
	return mustNet(b, d)
}

// benchmarkRunBatch measures one executor consuming fixed micro-batches
// through the batched kernel path. The samples/s metric is comparable
// across batch sizes: batch 1 is the per-item baseline the batched rows
// are judged against.
func benchmarkRunBatch(b *testing.B, sn *SpikingNet, mode synth.ExecMode, batch int) {
	window := sn.Window()
	rng := rand.New(rand.NewSource(3))
	// Every batch size cycles through the same 64-vector pool (64 is a
	// multiple of each size), so simulation cost — which depends on
	// spike density — is sampled identically and samples/s compares
	// cleanly across sub-benchmarks.
	pool := make([][]int, 64)
	for i := range pool {
		in := make([]int, sn.prog.InputSize)
		for j := range in {
			in[j] = rng.Intn(window + 1)
		}
		pool[i] = in
	}
	ex, err := synth.NewExecutor(sn.prog, synth.RunOptions{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	cur := make([][]int, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cur {
			cur[j] = pool[(i*batch+j)%len(pool)]
		}
		if _, err := ex.RunBatch(cur); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkRunBatch sweeps batch sizes over the MLP and conv workloads in
// both deterministic modes; compare the samples/s metric within one
// workload+mode group to read the batched-vs-serial throughput ratio.
func BenchmarkRunBatch(b *testing.B) {
	d, _ := deployBenchNet(b)
	mlp := mustNet(b, d)
	conv := deployConvBenchNet(b)
	for _, wl := range []struct {
		name string
		sn   *SpikingNet
	}{{"mlp", mlp}, {"conv", conv}} {
		for _, mode := range []struct {
			name string
			mode synth.ExecMode
		}{{"reference", synth.ModeReference}, {"spiking", synth.ModeSpiking}} {
			for _, batch := range []int{1, 4, 16, 64} {
				b.Run(fmt.Sprintf("%s/%s/batch%d", wl.name, mode.name, batch), func(b *testing.B) {
					benchmarkRunBatch(b, wl.sn, mode.mode, batch)
				})
			}
		}
	}
}
