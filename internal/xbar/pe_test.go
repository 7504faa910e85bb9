package xbar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// The crossbar as the paper's processing element (§4.2, Figure 4): rows
// driven by spike trains, columns feeding integrate-and-fire neurons,
// polarity pairs merged by spike subtracters. These tests came here from
// internal/pe, which wrapped a Crossbar and added nothing they need; they
// drive Program, ReferenceBatch and SimulateTrains directly.

func ifNeuron(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} }

func rcNeuron(eta float64) spike.Stepper { return spike.DefaultRCNeuron(eta) }

// programSafe programs weights on ideal devices (or with cfg's variation
// when rng is non-nil) at the synthesizer's saturation-safe η.
func programSafe(t testing.TB, cfg Config, weights [][]int, rng *rand.Rand) *Crossbar {
	t.Helper()
	cfg.Eta = synthEta(weights)
	xb, err := Program(cfg, weights, rng)
	if err != nil {
		t.Fatal(err)
	}
	return xb
}

// reference is the integer reference output for one count vector.
func reference(xb *Crossbar, x []int) ([]int, error) {
	out := make([]int, xb.Cols())
	return out, xb.ReferenceBatch(out, x, 1)
}

func trainsOf(counts []int, window int) []spike.Train {
	trains := make([]spike.Train, len(counts))
	for i, c := range counts {
		trains[i] = spike.UniformTrain(c, window)
	}
	return trains
}

func TestProgramRejectsBadShapes(t *testing.T) {
	cfg := testConfig(0)
	if _, err := Program(cfg, nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	big := make([][]int, 257)
	for i := range big {
		big[i] = make([]int, 1)
	}
	if _, err := Program(cfg, big, nil); err == nil {
		t.Error("257-row matrix accepted")
	}
	wide := [][]int{make([]int, 257)}
	if _, err := Program(cfg, wide, nil); err == nil {
		t.Error("257-col matrix accepted")
	}
	ragged := [][]int{{1, 2}, {3}}
	if _, err := Program(cfg, ragged, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	tooBig := [][]int{{1000}}
	if _, err := Program(cfg, tooBig, nil); err == nil {
		t.Error("overweight value accepted")
	}
}

func TestReferenceVMMIdentity(t *testing.T) {
	// A diagonal of full-scale weights with η = MaxWeight passes counts
	// through: Y = X (then ReLU is a no-op for non-negative counts).
	cfg := testConfig(0)
	n := 8
	w := make([][]int, n)
	for i := range w {
		w[i] = make([]int, n)
		w[i][i] = cfg.Rep.MaxWeight()
	}
	xb, err := Program(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := []int{0, 1, 5, 10, 20, 40, 63, 64}
	got, err := reference(xb, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Errorf("identity: out[%d] = %d, want %d", i, got[i], x[i])
		}
	}
}

func TestReferenceVMMReLU(t *testing.T) {
	cfg := testConfig(0)
	xb, err := Program(cfg, [][]int{{-cfg.Rep.MaxWeight()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reference(xb, []int{50})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("negative product: out = %d, want 0 (ReLU)", got[0])
	}
}

func TestSimulateMatchesReferenceIdealDevices(t *testing.T) {
	// Core fidelity property (Eq. 1-6): the cycle-level spiking PE with
	// ideal devices computes the integer reference VMM+ReLU. The
	// subtracter stream can deviate by at most 1 count when negative
	// spikes trail the last positive spike.
	rng := rand.New(rand.NewSource(51))
	cfg := testConfig(0)
	window := cfg.Params.SamplingWindow()
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(24), 1+rng.Intn(12)
		xb := programSafe(t, cfg, randomWeights(rng, rows, cols, cfg.Rep.MaxWeight()), nil)
		counts := randomCounts(rng, rows, window)
		ref, err := reference(xb, counts)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := xb.SimulateTrains(trainsOf(counts, window), ifNeuron)
		if err != nil {
			t.Fatal(err)
		}
		for j := range outs {
			got := outs[j].Count()
			if d := got - ref[j]; d < -1 || d > 1 {
				t.Errorf("trial %d col %d: sim %d vs reference %d (|Δ|>1)", trial, j, got, ref[j])
			}
		}
	}
}

func TestSimulateRCUndercountsBoundedly(t *testing.T) {
	// The RC voltage neuron (Eq. 1) loses sub-cycle overshoot at each
	// discharge, so it can only undercount relative to the ideal neuron,
	// and only by a small margin for realistic drives. This is the one
	// place the RC neuron runs on a crossbar.
	rng := rand.New(rand.NewSource(71))
	cfg := testConfig(0)
	window := cfg.Params.SamplingWindow()
	xb := programSafe(t, cfg, randomWeights(rng, 16, 8, cfg.Rep.MaxWeight()/4), nil)
	trains := trainsOf(randomCounts(rng, 16, window), window)
	ideal, err := xb.SimulateTrains(trains, ifNeuron)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := xb.SimulateTrains(trains, rcNeuron)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ideal {
		di, dr := ideal[j].Count(), rc[j].Count()
		if dr > di+1 {
			t.Errorf("col %d: RC %d overcounts ideal %d", j, dr, di)
		}
		if di-dr > di/4+2 {
			t.Errorf("col %d: RC %d undercounts ideal %d beyond bound", j, dr, di)
		}
	}
}

func TestSimulateWithVariationStaysClose(t *testing.T) {
	// With the paper's add method and realistic sigma, outputs stay
	// within a few counts of the ideal reference (the Figure 9 add-curve
	// mechanism).
	rng := rand.New(rand.NewSource(81))
	cfg := testConfig(0)
	cfg.Spec = device.Cell4Bit // Sigma = Cell4Bit.Sigma
	cfg.Rep = device.NewAdd(cfg.Spec, cfg.Params.CellsPerWeight)
	window := cfg.Params.SamplingWindow()
	xb := programSafe(t, cfg, randomWeights(rng, 32, 8, cfg.Rep.MaxWeight()/4), rng)
	counts := randomCounts(rng, 32, window)
	ref, err := reference(xb, counts)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := xb.SimulateTrains(trainsOf(counts, window), ifNeuron)
	if err != nil {
		t.Fatal(err)
	}
	for j := range outs {
		if d := math.Abs(float64(outs[j].Count() - ref[j])); d > 6 {
			t.Errorf("col %d: noisy sim %d vs ideal ref %d (Δ=%v)", j, outs[j].Count(), ref[j], d)
		}
	}
}

func TestSimulateInputValidation(t *testing.T) {
	xb, err := Program(testConfig(0), [][]int{{1, 2}, {3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.SimulateTrains([]spike.Train{spike.NewTrain(64)}, ifNeuron); err == nil {
		t.Error("wrong train count accepted")
	}
	if _, err := xb.SimulateTrains([]spike.Train{spike.NewTrain(32), spike.NewTrain(32)}, ifNeuron); err == nil {
		t.Error("wrong window accepted")
	}
	if _, err := reference(xb, []int{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

// Property tests over the reference semantics: invariants that must hold
// for any programmed matrix and input, independent of the cycle-level
// machinery.

func TestQuickReferenceMonotoneInInputs(t *testing.T) {
	// With non-negative weights, increasing any input count can never
	// decrease any output (the crossbar computes a monotone map).
	rng := rand.New(rand.NewSource(111))
	cfg := testConfig(0)
	w := make([][]int, 12)
	for i := range w {
		w[i] = make([]int, 6)
		for j := range w[i] {
			w[i][j] = rng.Intn(cfg.Rep.MaxWeight() + 1) // non-negative
		}
	}
	xb := programSafe(t, cfg, w, nil)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]int, 12)
		for i := range x {
			x[i] = r.Intn(60)
		}
		base, err := reference(xb, x)
		if err != nil {
			return false
		}
		x[r.Intn(12)]++
		bumped, err := reference(xb, x)
		if err != nil {
			return false
		}
		for j := range base {
			if bumped[j] < base[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickReferenceZeroInputZeroOutput(t *testing.T) {
	// Zero input must produce zero output for any weights.
	rng := rand.New(rand.NewSource(112))
	cfg := testConfig(0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(16), 1+r.Intn(8)
		xb, err := Program(cfg, randomWeights(rng, rows, cols, cfg.Rep.MaxWeight()), nil)
		if err != nil {
			return false
		}
		out, err := reference(xb, make([]int, rows))
		if err != nil {
			return false
		}
		for _, v := range out {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickNegatedWeightsGiveZero(t *testing.T) {
	// All-negative weights through ReLU must always yield zero.
	cfg := testConfig(0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		w := make([][]int, rows)
		for i := range w {
			w[i] = []int{-(1 + r.Intn(cfg.Rep.MaxWeight()))}
		}
		xb, err := Program(cfg, w, nil)
		if err != nil {
			return false
		}
		x := make([]int, rows)
		for i := range x {
			x[i] = r.Intn(64)
		}
		out, err := reference(xb, x)
		return err == nil && out[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulateFullPE(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	cfg := testConfig(0)
	xb, err := Program(cfg, randomWeights(rng, 256, 64, cfg.Rep.MaxWeight()), nil)
	if err != nil {
		b.Fatal(err)
	}
	trains := trainsOf(randomCounts(rng, 256, cfg.Params.SamplingWindow()), cfg.Params.SamplingWindow())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xb.SimulateTrains(trains, ifNeuron); err != nil {
			b.Fatal(err)
		}
	}
}
