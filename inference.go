package fpsa

import (
	"fmt"
	"math/rand"
	"sync"

	"fpsa/internal/device"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// Dataset is a labeled feature set with features in [0, 1].
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// SyntheticDataset generates the clustered classification data the
// functional examples and the variation study train on.
func SyntheticDataset(seed int64, n, dim, classes int, noise float64) Dataset {
	ds := trainer.SyntheticClusters(rand.New(rand.NewSource(seed)), n, dim, classes, noise)
	return Dataset{X: ds.X, Y: ds.Y, Classes: ds.Classes}
}

// Split partitions a dataset front/back.
func (d Dataset) Split(frac float64) (train, test Dataset) {
	t1, t2 := d.internal().Split(frac)
	return Dataset{X: t1.X, Y: t1.Y, Classes: t1.Classes}, Dataset{X: t2.X, Y: t2.Y, Classes: t2.Classes}
}

func (d Dataset) internal() trainer.Dataset {
	return trainer.Dataset{X: d.X, Y: d.Y, Classes: d.Classes}
}

// TrainedMLP is a trained bias-free ReLU network, deployable onto FPSA.
type TrainedMLP struct {
	net *trainer.MLP
}

// TrainMLP trains an MLP with the given layer dims ([input, hidden...,
// classes]) for the given epochs.
func TrainMLP(seed int64, dims []int, train Dataset, epochs int) (*TrainedMLP, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := trainer.NewMLP(rng, dims)
	if err != nil {
		return nil, err
	}
	net.Train(rng, train.internal(), trainer.TrainOptions{Epochs: epochs})
	return &TrainedMLP{net: net}, nil
}

// Accuracy evaluates float-model classification accuracy.
func (t *TrainedMLP) Accuracy(ds Dataset) float64 { return t.net.Accuracy(ds.internal()) }

// Predict returns the float model's class for one sample.
func (t *TrainedMLP) Predict(x []float64) int { return t.net.Predict(x) }

// Model returns the trained network's computational graph as a Model,
// ready for Compile alongside WeightSource.
func (t *TrainedMLP) Model() Model { return Model{graph: t.net.Graph("deployed-mlp")} }

// WeightSource adapts the trained weights for WithWeightSource, keyed by
// the layer names of Model().WeightLayers.
func (t *TrainedMLP) WeightSource() WeightSource { return WeightSource(t.net.WeightSource()) }

// ExecMode selects how a SpikingNet evaluates.
type ExecMode = synth.ExecMode

// Execution modes.
const (
	// ModeReference uses the integer reference semantics of the PE.
	ModeReference = synth.ModeReference
	// ModeSpiking runs the full cycle-level spiking simulation.
	ModeSpiking = synth.ModeSpiking
	// ModeSpikingNoisy additionally programs the ReRAM cells with
	// device variation (deterministic per SpikingNet seed).
	ModeSpikingNoisy = synth.ModeSpikingNoisy
)

// checkMode rejects a mode outside the declared range.
func checkMode(m ExecMode) error {
	if m < ModeReference || m > ModeSpikingNoisy {
		return fmt.Errorf("%w: unknown exec mode %d", ErrInvalidArgument, int(m))
	}
	return nil
}

// SpikingNet is a network deployed onto simulated FPSA processing
// elements.
type SpikingNet struct {
	prog *synth.Program
	// faults is the compiled fault scenario (WithFaultModel/WithFaultMap),
	// applied deterministically whenever the net programs its crossbars —
	// identical in every execution mode and at every replica count. nil
	// for ideal devices.
	faults *device.FaultModel
	mu     sync.Mutex
	seed   int64
	// rng is the persistent programming-variation stream for
	// ModeSpikingNoisy: seeded from seed, advanced one draw per noisy
	// run, so consecutive runs see fresh variation while SetSeed
	// reproduces the whole sequence.
	rng *rand.Rand
}

// SetSeed fixes the programming-variation RNG for ModeSpikingNoisy and
// restarts its sequence: after SetSeed(s) the net replays the same
// series of noisy trials it produced the last time it was seeded with s.
func (s *SpikingNet) SetSeed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed = seed
	s.rng = rand.New(rand.NewSource(seed + 7))
}

// currentSeed reads the variation seed under the lock.
func (s *SpikingNet) currentSeed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seed
}

// noisyRng returns a fresh variation RNG for one noisy run, deriving its
// seed from the persistent stream so every call draws different
// variation (a Monte-Carlo loop measures distinct trials) yet the
// sequence is a deterministic function of SetSeed.
func (s *SpikingNet) noisyRng() *rand.Rand {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed + 7))
	}
	return rand.New(rand.NewSource(s.rng.Int63()))
}

// Classify quantizes features in [0,1] into the sampling window and runs
// the deployed network, returning the argmax class.
func (s *SpikingNet) Classify(features []float64, mode ExecMode) (int, error) {
	out, err := s.Outputs(features, mode)
	if err != nil {
		return 0, err
	}
	return synth.Argmax(out), nil
}

// runOptions resolves one call's executor options. invalid is whatever
// input validation found: with the mode it is everything that can reject
// the call, and both are checked before the noisy draw, so a rejected
// call leaves the SetSeed stream where it was.
func (s *SpikingNet) runOptions(mode ExecMode, invalid error) (synth.RunOptions, error) {
	err := checkMode(mode)
	if err == nil {
		err = invalid
	}
	if err != nil {
		return synth.RunOptions{}, err
	}
	opts := synth.RunOptions{Mode: mode, Faults: s.faults}
	if mode == ModeSpikingNoisy {
		opts.Rng = s.noisyRng()
	}
	return opts, nil
}

// Outputs returns the raw output spike counts.
func (s *SpikingNet) Outputs(features []float64, mode ExecMode) ([]int, error) {
	in := synth.QuantizeInput(features, s.prog.Params.SamplingWindow())
	opts, err := s.runOptions(mode, s.prog.Validate(in))
	if err != nil {
		return nil, err
	}
	return s.prog.Run(in, opts)
}

// ClassifyBatch quantizes a micro-batch of feature vectors and runs the
// deployed network once over the whole batch, returning the positional
// argmax classes. The network's crossbars are programmed once for the
// batch and every stage evaluates all samples together (the batched
// kernel path), so this is substantially faster than looping Classify.
// In ModeSpikingNoisy the batch shares a single programming-variation
// draw — one physical chip serving the batch — advancing the SetSeed
// stream by one draw per batch rather than one per sample; a batch that
// is rejected (wrong-length sample, unknown mode) advances it not at all.
// Every call re-programs, and that costs one variation draw per cell and
// the kernel: the deployment's fault masks are derived once, not per
// call. An Engine programs once and is the way to serve.
func (s *SpikingNet) ClassifyBatch(features [][]float64, mode ExecMode) ([]int, error) {
	outs, err := s.OutputsBatch(features, mode)
	if err != nil {
		return nil, err
	}
	return argmaxes(outs), nil
}

// argmaxes is each output's argmax class, positionally.
func argmaxes(outs [][]int) []int {
	labels := make([]int, len(outs))
	for i, out := range outs {
		labels[i] = synth.Argmax(out)
	}
	return labels
}

// OutputsBatch returns the raw output spike counts for a micro-batch of
// feature vectors, positionally. See ClassifyBatch for the batching and
// noisy-mode semantics.
func (s *SpikingNet) OutputsBatch(features [][]float64, mode ExecMode) ([][]int, error) {
	if len(features) == 0 {
		return nil, nil
	}
	ins := synth.QuantizeBatch(features, s.prog.Params.SamplingWindow())
	opts, err := s.runOptions(mode, s.prog.ValidateBatch(ins))
	if err != nil {
		return nil, err
	}
	return s.prog.RunBatch(ins, opts)
}

// Window returns the deployment's sampling window Γ.
func (s *SpikingNet) Window() int { return s.prog.Params.SamplingWindow() }

// Stages returns the number of core-op stages the network executes.
func (s *SpikingNet) Stages() int { return len(s.prog.Stages) }

// VariationAccuracy runs the Figure 9 Monte-Carlo study on this trained
// network: normalized accuracy of a weight representation under
// programming variation. Method is "splice" or "add".
func (t *TrainedMLP) VariationAccuracy(ds Dataset, method string, cells, trials int, seed int64) (float64, error) {
	spec := device.Cell4BitMeasured
	var rep device.Representation
	switch method {
	case "splice":
		rep = device.NewSplice(spec, cells)
	case "add":
		rep = device.NewAdd(spec, cells)
	default:
		return 0, fmt.Errorf("%w: unknown representation %q (want splice or add)", ErrInvalidArgument, method)
	}
	rng := rand.New(rand.NewSource(seed))
	res := trainer.VariationStudy(t.net, ds.internal(), rep, spec, rng, trials)
	return res.NormalizedAccuracy, nil
}
