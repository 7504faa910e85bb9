package fpsa_test

import (
	"context"
	"fmt"
	"math/rand"

	"fpsa"
)

// Compiling a benchmark model reports the function-block inventory the
// mapper allocated for it. Compile is ctx-first and option-based: the
// zero-option call is a 1× deployment on the default fabric.
func ExampleCompile() {
	m, err := fpsa.LoadBenchmark("MLP-500-100")
	if err != nil {
		panic(err)
	}
	d, err := fpsa.Compile(context.Background(), m)
	if err != nil {
		panic(err)
	}
	pes, smbs, clbs := d.Blocks()
	fmt.Printf("%d PEs, %d SMBs, %d CLBs\n", pes, smbs, clbs)
	// Output: 11 PEs, 0 SMBs, 2 CLBs
}

// Custom models are assembled with the chainable builder; weight and op
// counts follow the paper's accounting.
func ExampleNewModelBuilder() {
	m, err := fpsa.NewModelBuilder("tiny", 1, 8, 8).
		Conv2D(4, 3, 1, 1).ReLU().
		GlobalAvgPool().
		FC(2).ReLU().
		Build()
	if err != nil {
		panic(err)
	}
	fmt.Printf("weights=%d ops=%d layers=%v\n", m.Weights(), m.Ops(), m.WeightLayers())
	// Output: weights=44 ops=4624 layers=[conv2d1 fc4]
}

// A deployment compiled with weights derives a runnable spiking network
// that classifies feature vectors by running actual spiking core-ops.
func ExampleDeployment_NewNet() {
	m, err := fpsa.NewModelBuilder("gate", 1, 1, 1).
		FC(2).ReLU().
		Build()
	if err != nil {
		panic(err)
	}
	// One input feature drives two outputs with opposite weights: class
	// 0 fires on bright inputs, class 1 stays silent (ReLU clips it).
	d, err := fpsa.Compile(context.Background(), m, fpsa.WithWeights(map[string][][]float64{
		m.WeightLayers()[0]: {{1.0, -1.0}},
	}))
	if err != nil {
		panic(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		panic(err)
	}
	label, err := sn.Classify([]float64{0.9}, fpsa.ModeReference)
	if err != nil {
		panic(err)
	}
	fmt.Println("class", label)
	// Output: class 0
}

// A handcrafted convolutional network — edge-detector filters, ReLU, max
// pooling, global average pooling and a linear classifier — runs as spike
// trains on simulated PEs and classifies striped images. No training is
// involved: the synthesizer's structural lowerings (im2col'd convolution,
// pairwise-max trees, averaging columns) compute what they claim on the
// spiking PE model.
func ExampleDeployment_NewNet_convolutional() {
	const size = 8
	// stripes renders an 8×8 image of horizontal (dir 0) or vertical
	// (dir 1) stripes with per-pixel jitter, as CHW features in [0,1].
	stripes := func(rng *rand.Rand, dir int) []float64 {
		img := make([]float64, size*size)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				k := y
				if dir == 1 {
					k = x
				}
				v := 0.1
				if k%2 == 0 {
					v = 0.9
				}
				img[y*size+x] = v + (rng.Float64()-0.5)*0.1
			}
		}
		return img
	}
	m, err := fpsa.NewModelBuilder("stripes", 1, size, size).
		Conv2D(2, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		GlobalAvgPool().
		FC(2).ReLU().
		Build()
	if err != nil {
		panic(err)
	}
	fmt.Printf("weight layers: %v\n", m.WeightLayers())

	// Filter 0 detects horizontal edges, filter 1 vertical ones; rows are
	// ordered (channel, ky, kx).
	horiz := []float64{+1, +1, +1, 0, 0, 0, -1, -1, -1}
	vert := []float64{+1, 0, -1, +1, 0, -1, +1, 0, -1}
	conv := make([][]float64, 9)
	for r := range conv {
		conv[r] = []float64{horiz[r], vert[r]}
	}
	d, err := fpsa.Compile(context.Background(), m, fpsa.WithWeights(map[string][][]float64{
		m.WeightLayers()[0]: conv,
		m.WeightLayers()[1]: {{1, 0}, {0, 1}}, // identity classifier
	}))
	if err != nil {
		panic(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("deployed: %d core-op stages, window Γ=%d\n", sn.Stages(), sn.Window())

	rng := rand.New(rand.NewSource(99))
	correct, n := 0, 40
	for i := 0; i < n; i++ {
		dir := i % 2
		label, err := sn.Classify(stripes(rng, dir), fpsa.ModeSpiking)
		if err != nil {
			panic(err)
		}
		if label == dir {
			correct++
		}
	}
	fmt.Printf("spiking CNN classified %d/%d striped images correctly\n", correct, n)

	out, err := sn.Outputs(stripes(rng, 0), fpsa.ModeSpiking)
	if err != nil {
		panic(err)
	}
	fmt.Printf("horizontal sample response (spike counts): horiz=%d vert=%d\n", out[0], out[1])
	// Output:
	// weight layers: [conv2d1 fc5]
	// deployed: 162 core-op stages, window Γ=64
	// spiking CNN classified 40/40 striped images correctly
	// horizontal sample response (spike counts): horiz=15 vert=9
}

// A model that exceeds one chip's capacity compiles as a sharded
// deployment: the core-op graph is cut across chips (min-cut on the
// inter-chip traffic), each chip gets its own netlist, and the perf
// model charges the inter-chip links.
func ExampleCompile_sharded() {
	m, err := fpsa.LoadBenchmark("MLP-500-100")
	if err != nil {
		panic(err)
	}
	d, err := fpsa.Compile(context.Background(), m, fpsa.WithChips(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("chips=%d\n", d.Chips())
	for _, sh := range d.Shards() {
		fmt.Printf("chip %d: %d PEs, %d signals in\n", sh.Chip, sh.PEs, sh.InSignals)
	}
	// Output:
	// chips=2
	// chip 0: 10 PEs, 0 signals in
	// chip 1: 1 PEs, 200 signals in
}

// A deployment compiled across chips serves through the same handle:
// the engine derived from it inherits the chip partition, with
// classifications bit-identical to a single-chip engine.
func ExampleDeployment_NewEngine() {
	ctx := context.Background()
	m, err := fpsa.NewModelBuilder("two-stage", 4, 1, 1).
		FC(3).ReLU().
		FC(2).ReLU().
		Build()
	if err != nil {
		panic(err)
	}
	layers := m.WeightLayers()
	d, err := fpsa.Compile(ctx, m,
		fpsa.WithChips(2),
		fpsa.WithWeights(map[string][][]float64{
			layers[0]: {{1, 0, -1}, {0, 1, 0}, {-1, 0, 1}, {0, -1, 0}},
			layers[1]: {{1, -1}, {-1, 1}, {0, 0}},
		}))
	if err != nil {
		panic(err)
	}
	eng, err := d.NewEngine(ctx, fpsa.WithMode(fpsa.ModeReference))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	labels, err := eng.ClassifyBatch(ctx, [][]float64{{0.9, 0.1, 0.0, 0.2}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("chips=%d class=%d\n", eng.Stats().Chips, labels[0])
	// Output: chips=2 class=0
}

// Compiling VGG16 at the paper's 64× duplication gives the Table 3
// deployment: its block inventory, area and the modeled throughput and
// latency, printed next to the published numbers.
func ExampleDeployment_Performance() {
	m, err := fpsa.LoadBenchmark("VGG16")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.1fM weights, %.1fG ops/sample\n",
		m.Name(), float64(m.Weights())/1e6, float64(m.Ops())/1e9)
	d, err := fpsa.Compile(context.Background(), m, fpsa.WithDuplication(64))
	if err != nil {
		panic(err)
	}
	pes, smbs, clbs := d.Blocks()
	fmt.Printf("deployment: %d PEs, %d SMBs, %d CLBs on %.2f mm2\n", pes, smbs, clbs, d.AreaMM2())
	p, err := d.Performance()
	if err != nil {
		panic(err)
	}
	fmt.Printf("modeled: %.4g samples/s, %.4g us latency\n", p.ThroughputSPS, p.LatencyUS)
	fmt.Println("paper:   2.4e+03 samples/s, 671.8 us latency, 68.09 mm2 (Table 3)")
	// Output:
	// VGG16: 138.3M weights, 30.9G ops/sample
	// deployment: 2994 PEs, 431 SMBs, 309 CLBs on 70.21 mm2
	// modeled: 2012 samples/s, 518.6 us latency
	// paper:   2.4e+03 samples/s, 671.8 us latency, 68.09 mm2 (Table 3)
}

// LeNet goes through the whole back end — synthesis, allocation at three
// duplication degrees, netlist, simulated-annealing placement and
// PathFinder routing — and the routed mean hop count feeds the
// performance model in place of the typical-route constant.
func ExampleDeployment_PlaceAndRoute() {
	ctx := context.Background()
	m, err := fpsa.LoadBenchmark("LeNet")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d weights, %d ops/sample\n", m.Name(), m.Weights(), m.Ops())
	for _, dup := range []int{1, 4, 16} {
		d, err := fpsa.Compile(ctx, m, fpsa.WithDuplication(dup), fpsa.WithSeed(9))
		if err != nil {
			panic(err)
		}
		pes, smbs, clbs := d.Blocks()
		stats, err := d.PlaceAndRoute(ctx)
		if err != nil {
			panic(err)
		}
		p, err := d.PerformanceWithHops(int(stats.MeanHops + 0.5))
		if err != nil {
			panic(err)
		}
		fmt.Printf("dup %2dx: %3d PE %2d SMB %2d CLB | %s\n", dup, pes, smbs, clbs, stats)
		fmt.Printf("         %.4g samples/s at %.2f mm2 (routed-hops comm %.0f ns/VMM)\n",
			p.ThroughputSPS, d.AreaMM2(), p.CommNSPerVMM)
	}
	// Output:
	// LeNet: 430500 weights, 4586000 ops/sample
	// dup  1x:  31 PE 21 SMB  6 CLB | chip 9x9, routed converged=true in 1 iters, hops mean 3.8 max 12, channels needed 1840
	//          4108 samples/s at 0.83 mm2 (routed-hops comm 423 ns/VMM)
	// dup  4x:  34 PE 21 SMB  6 CLB | chip 9x9, routed converged=true in 1 iters, hops mean 3.9 max 11, channels needed 1990
	//          1.643e+04 samples/s at 0.90 mm2 (routed-hops comm 423 ns/VMM)
	// dup 16x:  66 PE 21 SMB  5 CLB | chip 11x11, routed converged=true in 1 iters, hops mean 4.4 max 15, channels needed 1810
	//          6.572e+04 samples/s at 1.60 mm2 (routed-hops comm 423 ns/VMM)
}

// A trained MLP, deployed with its weights registered at compile time,
// classifies held-out samples by the cycle-level spike simulation — the
// functional path of the stack (synthesizer → core-ops → PEs) — and
// agrees with the float model it came from.
func ExampleTrainMLP() {
	ds := fpsa.SyntheticDataset(42, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := fpsa.TrainMLP(42, []int{16, 24, 4}, train, 40)
	if err != nil {
		panic(err)
	}
	fmt.Printf("float model accuracy: %.3f\n", net.Accuracy(test))
	d, err := fpsa.Compile(context.Background(), net.Model(), fpsa.WithWeightSource(net.WeightSource()))
	if err != nil {
		panic(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("deployed onto %d core-op stages (window Γ=%d)\n", sn.Stages(), sn.Window())
	correct, agree := 0, 0
	const n = 60
	for i := 0; i < n; i++ {
		label, err := sn.Classify(test.X[i], fpsa.ModeSpiking)
		if err != nil {
			panic(err)
		}
		if label == test.Y[i] {
			correct++
		}
		if label == net.Predict(test.X[i]) {
			agree++
		}
	}
	fmt.Printf("spiking inference over %d samples: accuracy %.3f, agreement with float %.3f\n",
		n, float64(correct)/n, float64(agree)/n)
	out, err := sn.Outputs(test.X[0], fpsa.ModeSpiking)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sample 0: true class %d, output spike counts %v\n", test.Y[0], out)
	// Output:
	// float model accuracy: 1.000
	// deployed onto 2 core-op stages (window Γ=64)
	// spiking inference over 60 samples: accuracy 1.000, agreement with float 1.000
	// sample 0: true class 0, output spike counts [10 0 0 0]
}
