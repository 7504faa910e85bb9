package fpsa

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

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
// classes], each ≥ 1, at least two) for the given epochs.
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
// elements. It is safe for concurrent use; between calls it keeps one
// programmed executor per mode it has run (see run). That memory stays
// with the net until the net is dropped: each kept executor is as large as
// the one a call of its mode builds — every crossbar of the program with
// its conductances, about 45 MB for MLP-500-100 in a noisy mode — plus
// scratch sized to the largest batch the mode has run.
type SpikingNet struct {
	prog *synth.Program
	// faults is the compiled fault scenario (WithFaultModel),
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
	// idle[m] is an executor programmed for mode m that no call holds, or
	// nil. A call claims it by swapping nil in, builds one when it finds
	// none, and stores it back when it returns normally; concurrent calls
	// that find the slot empty build their own, and one of them is kept.
	idle [ModeSpikingNoisy + 1]atomic.Pointer[synth.Executor]
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

// noisySeed draws the seed of one noisy run's variation off the persistent
// stream, so every call draws different variation (a Monte-Carlo loop
// measures distinct trials) yet the sequence is a deterministic function
// of SetSeed.
func (s *SpikingNet) noisySeed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed + 7))
	}
	return s.rng.Int63()
}

// Classify quantizes features in [0,1] into the sampling window and runs
// the deployed network, returning the argmax class.
func (s *SpikingNet) Classify(features []float64, mode ExecMode) (int, error) {
	var class [1]int
	if err := s.run(class[:], [][]float64{features}, mode, true, true); err != nil {
		return 0, err
	}
	return class[0], nil
}

// Outputs returns the raw output spike counts.
func (s *SpikingNet) Outputs(features []float64, mode ExecMode) ([]int, error) {
	out := make([]int, len(s.prog.OutputRefs))
	if err := s.run(out, [][]float64{features}, mode, true, false); err != nil {
		return nil, err
	}
	return out, nil
}

// run executes one call on the net's executor for the mode and writes the
// features' results into dst (synth.Executor.RunFeatures, which quantizes
// them): argmax classes when classes is set, output counts otherwise. The
// call's one input check, on the rows' lengths, comes before the noisy
// draw: quantization puts every count in [0, Γ], so a length is all that
// can be wrong. A wrong one is ErrInvalidArgument, naming the batch item
// unless single; it and an unknown mode leave the SetSeed stream where it
// was.
//
// The executor is the one the last call left idle, or a new one. In
// ModeSpikingNoisy the call draws a seed off the SetSeed stream and
// programs with it: a new executor from rand.New(rand.NewSource(seed)),
// an idle one by Executor.Redraw(seed), which is the same conductances in
// the same buffers. Ideal modes have nothing to draw and reuse the
// executor as it is. The executor goes back to the slot only when the call
// returns normally: one a kernel panic left mid-walk is dropped.
func (s *SpikingNet) run(dst []int, features [][]float64, mode ExecMode, single, classes bool) error {
	if err := checkMode(mode); err != nil {
		return err
	}
	for b, f := range features {
		if len(f) == s.prog.InputSize {
			continue
		}
		if single {
			return fmt.Errorf("%w: input length %d, want %d", ErrInvalidArgument, len(f), s.prog.InputSize)
		}
		return fmt.Errorf("%w: batch item %d: input length %d, want %d", ErrInvalidArgument, b, len(f), s.prog.InputSize)
	}
	ex := s.idle[mode].Swap(nil)
	if ex == nil {
		opts := synth.RunOptions{Mode: mode, Faults: s.faults}
		if mode == ModeSpikingNoisy {
			opts.Rng = rand.New(rand.NewSource(s.noisySeed()))
		}
		var err error
		if ex, err = synth.NewExecutor(s.prog, opts); err != nil {
			return err
		}
	} else if mode == ModeSpikingNoisy {
		ex.Redraw(s.noisySeed())
	}
	if err := ex.RunFeatures(dst, features, classes); err != nil {
		return err
	}
	s.idle[mode].Store(ex)
	return nil
}

// ClassifyBatch quantizes a micro-batch of feature vectors and runs the
// deployed network once over the whole batch, returning the positional
// argmax classes, read straight out of the executor's output tables. Every
// stage evaluates all samples together (the batched kernel path), so this
// is substantially faster than looping Classify. In ModeSpikingNoisy the
// batch shares a single programming-variation draw — one physical chip
// serving the batch — advancing the SetSeed stream by one draw per batch
// rather than one per sample; a batch that is rejected (wrong-length
// sample, unknown mode) advances it not at all, and an empty one in a
// known mode is a no-op that draws nothing. A noisy call re-programs the
// net's crossbars in place: it costs one variation draw per cell and the
// kernel, not a new executor, and the deployment's fault masks are derived
// once, not per call. The executor and its scratch, grown to this batch
// if it is the largest so far, stay with the net after the call (see
// SpikingNet). An Engine programs once and is the way to serve.
func (s *SpikingNet) ClassifyBatch(features [][]float64, mode ExecMode) ([]int, error) {
	if len(features) == 0 {
		return nil, checkMode(mode)
	}
	labels := make([]int, len(features))
	if err := s.run(labels, features, mode, false, true); err != nil {
		return nil, err
	}
	return labels, nil
}

// Window returns the deployment's sampling window Γ.
func (s *SpikingNet) Window() int { return s.prog.Params.SamplingWindow() }

// Stages returns the number of core-op stages the network executes.
func (s *SpikingNet) Stages() int { return len(s.prog.Stages) }
