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
	label, err := eng.Classify(ctx, []float64{0.9, 0.1, 0.0, 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("chips=%d class=%d\n", eng.Stats().Chips, label)
	// Output: chips=2 class=0
}
