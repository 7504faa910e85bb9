package trainer

import (
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/synth"
)

// trainedNet returns a small trained network and its evaluation set.
func trainedNet(t *testing.T) (*MLP, Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(301))
	train, test := SyntheticClusters(rng, 900, 16, 4, 0.08).Split(2.0 / 3)
	m, err := NewMLP(rng, []int{16, 24, 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Train(rng, train, TrainOptions{Epochs: 40, LR: 0.03})
	if acc := m.Accuracy(test); acc < 0.9 {
		t.Fatalf("trained accuracy = %.3f, want ≥0.9", acc)
	}
	return m, test
}

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP(rand.New(rand.NewSource(1)), []int{5}); err == nil {
		t.Error("single-dim MLP accepted")
	}
	for _, dims := range [][]int{{16, 0}, {16, -4, 4}} {
		if _, err := NewMLP(rand.New(rand.NewSource(1)), dims); err == nil {
			t.Errorf("MLP %v accepted", dims)
		}
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	ds := SyntheticClusters(rng, 400, 8, 3, 0.05)
	m, err := NewMLP(rng, []int{8, 12, 3})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Accuracy(ds)
	m.Train(rng, ds, TrainOptions{Epochs: 30, LR: 0.05})
	after := m.Accuracy(ds)
	if after <= before {
		t.Errorf("accuracy did not improve: %.3f → %.3f", before, after)
	}
	if after < 0.85 {
		t.Errorf("trained accuracy %.3f too low", after)
	}
}

// TestTrainAllocs checks that Train allocates its workspace once per call:
// the count depends on the layers, not on samples × epochs.
func TestTrainAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	ds := SyntheticClusters(rng, 300, 16, 4, 0.08)
	m, err := NewMLP(rng, []int{16, 48, 48, 4})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n, epochs int) float64 {
		sub := Dataset{X: ds.X[:n], Y: ds.Y[:n], Classes: ds.Classes}
		return testing.AllocsPerRun(5, func() {
			m.Train(rng, sub, TrainOptions{Epochs: epochs})
		})
	}
	small, large := allocs(30, 1), allocs(300, 10)
	if small != large {
		t.Errorf("Train allocs grow with the work: %v for 30 samples × 1 epoch, %v for 300 × 10", small, large)
	}
	// The permutation, the workspace and its slices, two per layer.
	if limit := float64(6 + 2*m.Layers()); large > limit {
		t.Errorf("Train allocs = %v, want ≤ %v", large, limit)
	}
}

func TestForwardReLU(t *testing.T) {
	m := &MLP{Dims: []int{2, 2}, W: [][][]float64{{{1, -1}, {1, -1}}}}
	acts := m.Forward([]float64{1, 1})
	out := acts[1]
	if out[0] != 2 || out[1] != 0 {
		t.Errorf("out = %v, want [2 0] (ReLU clips)", out)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	m, err := NewMLP(rng, []int{3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.W[0][0][0] += 100
	if m.W[0][0][0] == c.W[0][0][0] {
		t.Error("clone shares weight storage")
	}
}

func TestGraphAndWeightSourceCompile(t *testing.T) {
	// Integration: a trained MLP compiles through the synthesizer and
	// its spiking execution agrees with the float model on most
	// classifications.
	m, test := trainedNet(t)
	opts := synth.DefaultOptions()
	opts.Weights = m.WeightSource()
	_, prog, err := synth.Compile(m.Graph("trained"), opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	agree, n := 0, 0
	for i := 0; i < 60; i++ {
		in := synth.QuantizeInput(test.X[i], window)
		out, err := prog.Run(in, synth.RunOptions{Mode: synth.ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		if synth.Argmax(out) == m.Predict(test.X[i]) {
			agree++
		}
		n++
	}
	if frac := float64(agree) / float64(n); frac < 0.8 {
		t.Errorf("spiking/float agreement = %.2f, want ≥0.8", frac)
	}
}

func TestProgramNetworkQuantizationOnly(t *testing.T) {
	// Ideal programming at the paper's add-method precision keeps
	// normalized accuracy near 1.
	m, test := trainedNet(t)
	spec := device.CellSpec{Bits: 4}
	res := QuantizationOnly(m, test, device.NewAdd(spec, 8), spec)
	if res.NormalizedAccuracy < 0.97 {
		t.Errorf("add-8 quantization-only normalized accuracy = %.3f, want ≥0.97", res.NormalizedAccuracy)
	}
	// One 4-bit cell (16 levels) loses visibly more.
	res1 := QuantizationOnly(m, test, device.NewAdd(spec, 1), spec)
	if res1.NormalizedAccuracy > res.NormalizedAccuracy+1e-9 {
		t.Errorf("1-cell quantization (%.3f) beats 8-cell (%.3f)", res1.NormalizedAccuracy, res.NormalizedAccuracy)
	}
}

// fig9Net returns the deeper substitute network the variation study uses
// (depth compounds programming noise the way VGG16's depth does).
func fig9Net(t *testing.T) (*MLP, Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(301))
	train, test := SyntheticClusters(rng, 1800, 24, 8, 0.13).Split(2.0 / 3)
	m, err := NewMLP(rng, []int{24, 48, 40, 32, 8})
	if err != nil {
		t.Fatal(err)
	}
	m.Train(rng, train, TrainOptions{Epochs: 60, LR: 0.02})
	if acc := m.Accuracy(test); acc < 0.95 {
		t.Fatalf("fig9 net accuracy = %.3f, want ≥0.95", acc)
	}
	return m, test
}

func TestVariationStudyReproducesFigure9Ordering(t *testing.T) {
	// The Figure 9 shape at the measured cell variation: the PRIME
	// splice configuration collapses to ~0.7 normalized accuracy while
	// the paper's add configuration stays near full precision.
	m, test := fig9Net(t)
	rng := rand.New(rand.NewSource(304))
	spec := device.Cell4BitMeasured
	splice := VariationStudy(m, test, device.NewSplice(spec, 2), spec, rng, 8)
	add := VariationStudy(m, test, device.NewAdd(spec, 8), spec, rng, 8)
	if splice.NormalizedAccuracy < 0.5 || splice.NormalizedAccuracy > 0.85 {
		t.Errorf("splice-2 normalized accuracy = %.3f, want ~0.7 (calibration point)", splice.NormalizedAccuracy)
	}
	if add.NormalizedAccuracy < 0.95 {
		t.Errorf("add-8 normalized accuracy = %.3f, want ≥0.95 (predicted, paper ~1.0)", add.NormalizedAccuracy)
	}
	if add.NormalizedAccuracy <= splice.NormalizedAccuracy {
		t.Errorf("add (%.3f) not better than splice (%.3f)", add.NormalizedAccuracy, splice.NormalizedAccuracy)
	}
	t.Logf("splice=%.3f add=%.3f (paper: ~0.7 vs ~1.0)", splice.NormalizedAccuracy, add.NormalizedAccuracy)
}

func TestSyntheticClustersLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	ds := SyntheticClusters(rng, 100, 4, 5, 0.01)
	if ds.Len() != 100 || ds.Classes != 5 {
		t.Fatalf("dataset %d samples %d classes", ds.Len(), ds.Classes)
	}
	for i, x := range ds.X {
		if len(x) != 4 {
			t.Fatalf("sample %d has %d features", i, len(x))
		}
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("feature %v outside [0,1]", v)
			}
		}
		if ds.Y[i] < 0 || ds.Y[i] >= 5 {
			t.Fatalf("label %d out of range", ds.Y[i])
		}
	}
}
