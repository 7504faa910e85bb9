package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"fpsa"
)

// setupCounts is how often each workload sets up in one run; setup_s is the
// median. Cheap set-ups repeat more often.
var setupCounts = map[string]int{wlConv: 4, wlServe: 11, wlNoisy: 11, wlFleet: 5, wlCompile: 15}

// convModel builds the conv workload's network and its seeded random
// weights through the public builder.
func convModel() (fpsa.Model, map[string][][]float64, error) {
	m, err := fpsa.NewModelBuilder("bench-conv", convInC, convInHW, convInHW).
		Conv2D(convOutC, 3, 1, 1).ReLU().MaxPool(2, 2).GlobalAvgPool().FC(convClasses).ReLU().Build()
	if err != nil {
		return m, nil, err
	}
	layers := m.WeightLayers()
	if len(layers) != 2 {
		return m, nil, fmt.Errorf("conv model has MAC layers %v, want a conv and an fc", layers)
	}
	// Uniform in [-0.3, 0.7): mostly excitatory, so activity survives the
	// pooling stages and the four output counts are far enough apart for
	// the label to depend on the input.
	rng := rand.New(rand.NewSource(modelSeed))
	uniform := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = rng.Float64() - 0.3
			}
		}
		return w
	}
	weights := map[string][][]float64{
		layers[0]: uniform(9*convInC, convOutC),
		layers[1]: uniform(convOutC, convClasses),
	}
	return m, weights, nil
}

// setupConv: Compile(WithWeights) → NewEngine(WithMode(ModeSpiking)) with
// the library's default engine, one caller, batches of 16.
func setupConv(ctx context.Context, seed int64) (*served, error) {
	m, weights, err := convModel()
	if err != nil {
		return nil, err
	}
	d, err := fpsa.Compile(ctx, m, fpsa.WithWeights(weights))
	if err != nil {
		return nil, err
	}
	eng, err := d.NewEngine(ctx, fpsa.WithMode(fpsa.ModeSpiking))
	if err != nil {
		return nil, err
	}
	s := &served{
		inputs:   imageInputs(rand.New(rand.NewSource(seed)), inputsN),
		batch:    16,
		callers:  1,
		mode:     fpsa.ModeSpiking,
		dep:      d,
		classify: eng.ClassifyBatch,
		close:    func() { _ = eng.Close() }, // nothing is in flight when a run closes its engine
	}
	return s, s.warmUp(ctx)
}

// convModelProgram synthesizes the conv model a second time, below the
// public API (see layers.go).
func convModelProgram(m fpsa.Model, weights map[string][][]float64) (*program, error) {
	layers := m.WeightLayers()
	return convProgram(weights[layers[0]], weights[layers[1]])
}

// convReference labels the inputs with the float reference of the conv
// program (there is no trained float model for random weights).
func convReference(inputs [][]float64) ([]int, error) {
	m, weights, err := convModel()
	if err != nil {
		return nil, err
	}
	pr, err := convModelProgram(m, weights)
	if err != nil {
		return nil, err
	}
	return pr.floatLabels(inputs)
}

// runServed is the run of a closed-loop workload whose answers repeat: set
// up, compare the warm-up answers with the float reference, drive the loop,
// cross-check serially and read the simulated-hardware clock.
func runServed(ctx context.Context, name string, cfg runConfig, bf *benchmarkFile,
	setup func(context.Context, int64) (*served, error), reference func(*served) ([]int, error)) (*result, error) {
	s, setupS, err := repeatSetup(cfg.setupCount(name), func() (*served, error) { return setup(ctx, cfg.seed) }, func(s *served) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := &measured{setupS: setupS, digest: labelDigest(s.expected)}
	ref, err := reference(s)
	if err != nil {
		return nil, err
	}
	s.agreement(m, ref)
	s.closedLoopRun(ctx, cfg, m, nil)
	if err := s.crossCheck(m); err != nil {
		return nil, err
	}
	if err := simOf(m, s.dep); err != nil {
		return nil, err
	}
	return buildResult(name, cfg, bf, m), nil
}

func runConv(ctx context.Context, cfg runConfig, bf *benchmarkFile) (*result, error) {
	return runServed(ctx, wlConv, cfg, bf, setupConv, func(s *served) ([]int, error) { return convReference(s.inputs) })
}

// trainedMLP trains the workloads' 16-24-4 MLP on the fixed dataset.
func trainedMLP(seed int64, dims []int) (*fpsa.TrainedMLP, error) {
	train, _ := mlpData()
	return fpsa.TrainMLP(seed, dims, train, mlpEpochs)
}

func predictAll(net *fpsa.TrainedMLP, inputs [][]float64) []int {
	ref := make([]int, len(inputs))
	for i, x := range inputs {
		ref[i] = net.Predict(x)
	}
	return ref
}

// serveCallers is nproc callers, at most 4.
func serveCallers() int {
	c := runtime.GOMAXPROCS(0)
	if c > 4 {
		c = 4
	}
	return c
}

// setupServe: the trained MLP behind NewEngine(WithMode(ModeReference)),
// nproc callers, batches of 64.
func setupServe(ctx context.Context, seed int64) (*served, error) {
	net, err := trainedMLP(modelSeed, mlpDims)
	if err != nil {
		return nil, err
	}
	d, err := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()))
	if err != nil {
		return nil, err
	}
	eng, err := d.NewEngine(ctx, fpsa.WithMode(fpsa.ModeReference))
	if err != nil {
		return nil, err
	}
	_, heldOut := mlpData()
	s := &served{
		inputs:   clusterInputs(rand.New(rand.NewSource(seed)), inputsN, heldOut.X),
		batch:    64,
		callers:  serveCallers(),
		mode:     fpsa.ModeReference,
		net:      net,
		dep:      d,
		classify: eng.ClassifyBatch,
		close:    func() { _ = eng.Close() }, // nothing is in flight when a run closes its engine
	}
	return s, s.warmUp(ctx)
}

func runServe(ctx context.Context, cfg runConfig, bf *benchmarkFile) (*result, error) {
	return runServed(ctx, wlServe, cfg, bf, setupServe, func(s *served) ([]int, error) { return predictAll(s.net, s.inputs), nil })
}

// noisyFaultRate is the stuck-cell rate of the noisy workload's devices.
const noisyFaultRate = 0.01

// noisyDensity is the target input spike density of the noisy workload.
const noisyDensity = 0.03

// setupNoisy: the MLP compiled WithFaultModel(0.01, modelSeed), run as a
// bare SpikingNet in ModeSpikingNoisy — every call programs its crossbars
// anew with fresh variation — one caller, batches of 64.
func setupNoisy(ctx context.Context, seed int64) (*served, error) {
	net, err := trainedMLP(modelSeed, mlpDims)
	if err != nil {
		return nil, err
	}
	d, err := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()), fpsa.WithFaultModel(noisyFaultRate, modelSeed))
	if err != nil {
		return nil, err
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		return nil, err
	}
	sn.SetSeed(seed)
	s := &served{
		inputs:  sparseInputs(rand.New(rand.NewSource(seed)), inputsN, mlpDims[0], noisyDensity),
		batch:   64,
		callers: 1,
		mode:    fpsa.ModeSpikingNoisy,
		net:     net,
		dep:     d,
		classify: func(_ context.Context, batch [][]float64) ([]int, error) {
			return sn.ClassifyBatch(batch, fpsa.ModeSpikingNoisy)
		},
		close: func() {},
	}
	return s, s.warmUp(ctx)
}

// noisyReplay is how many calls of the noisy run are replayed serially.
// Each replayed call costs one programming pass, so only a prefix of the
// variation stream is walked.
const noisyReplay = 96

func runNoisy(ctx context.Context, cfg runConfig, bf *benchmarkFile) (*result, error) {
	s, setupS, err := repeatSetup(cfg.setupCount(wlNoisy), func() (*served, error) { return setupNoisy(ctx, cfg.seed) }, func(s *served) { s.close() })
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, digest: labelDigest(s.expected)}

	// The warm-up made the stream's first calls; the timed loop makes the
	// rest. Remember the first label of each early call for the replay.
	type first struct{ lo, label int }
	warmCalls := inputsN / s.batch
	var firsts []first
	for c := 0; c < warmCalls; c++ {
		firsts = append(firsts, first{c * s.batch, s.expected[c*s.batch]})
	}
	s.agreement(m, predictAll(s.net, s.inputs))
	s.closedLoopRun(ctx, cfg, m, func(iter, lo int, labels []int) (int, int) {
		if len(firsts) < noisyReplay {
			firsts = append(firsts, first{lo, labels[0]})
		}
		for _, l := range labels {
			if l < 0 || l >= mlpDims[len(mlpDims)-1] {
				return 0, len(labels)
			}
		}
		return len(labels), 0
	})

	// Replay: a second net of the same deployment and seed draws the same
	// variation stream, one draw per call, so call k's first sample
	// recomputed alone must get the label the batch call gave it.
	replay, err := s.dep.NewNet(weightsOf(s.net))
	if err != nil {
		return nil, err
	}
	replay.SetSeed(cfg.seed)
	for k, f := range firsts {
		out, err := replay.Outputs(s.inputs[f.lo], fpsa.ModeSpikingNoisy)
		if err != nil {
			return nil, fmt.Errorf("noisy replay: %w", err)
		}
		if got := argmax(out); got != f.label {
			m.failed++
			m.problemf("noisy call %d, input %d: served label %d, serial replay gives %d", k, f.lo, f.label, got)
		}
	}
	if err := simOf(m, s.dep); err != nil {
		return nil, err
	}
	return buildResult(wlNoisy, cfg, bf, m), nil
}

// weightsOf copies a trained MLP's weights into the map form
// Deployment.NewNet takes for an independent net.
func weightsOf(net *fpsa.TrainedMLP) map[string][][]float64 {
	src := net.WeightSource()
	weights := make(map[string][][]float64)
	for _, layer := range net.Model().WeightLayers() {
		weights[layer] = src(layer)
	}
	return weights
}

// argmax is the index of the largest count, ties to the lowest index — the
// rule the library's classifiers use.
func argmax(v []int) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
