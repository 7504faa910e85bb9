package synth

import (
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/cgraph"
)

// buildTestMLP returns a small random FC network and its weight source.
func buildTestMLP(rng *rand.Rand, dims []int) (*cgraph.Graph, func(string) [][]float64) {
	g := cgraph.New("testmlp")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(dims[0])})
	x := in
	names := make([]string, 0, len(dims)-1)
	weights := make(map[string][][]float64)
	for i := 1; i < len(dims); i++ {
		name := "fc" + string(rune('0'+i))
		names = append(names, name)
		w := make([][]float64, dims[i-1])
		for r := range w {
			w[r] = make([]float64, dims[i])
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) / float64(dims[i-1])
			}
		}
		weights[name] = w
		x = g.MustAdd(name, cgraph.FC{Out: dims[i]}, x)
		x = g.MustAdd(name+"_relu", cgraph.ReLU{}, x)
	}
	_ = names
	return g, func(layer string) [][]float64 { return weights[layer] }
}

// runOne runs one input vector on ex as a batch of one.
func runOne(ex *Executor, in []int) ([]int, error) {
	outs, err := ex.RunBatch([][]int{in})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// runFresh runs one input vector on a freshly programmed executor — a new
// chip for the one call, in ModeSpikingNoisy drawn from opts.Rng — the
// oracle reused executors are held to.
func runFresh(p *Program, in []int, opts RunOptions) ([]int, error) {
	ex, err := NewExecutor(p, opts)
	if err != nil {
		return nil, err
	}
	return runOne(ex, in)
}

func randomInput(rng *rand.Rand, n, window int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = rng.Intn(window + 1)
	}
	return in
}

func TestCompileRequiresWeights(t *testing.T) {
	g := cgraph.New("g")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(8)})
	g.MustAdd("fc", cgraph.FC{Out: 4}, in)
	if _, _, err := Compile(g, DefaultOptions()); err == nil {
		t.Error("Compile without weights accepted")
	}
}

func TestProgramReferenceMatchesFloat(t *testing.T) {
	// The integer reference pipeline tracks the float pipeline within
	// floor-quantization error at every output.
	rng := rand.New(rand.NewSource(101))
	g, ws := buildTestMLP(rng, []int{32, 24, 10})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	for trial := 0; trial < 20; trial++ {
		in := randomInput(rng, 32, window)
		got, err := runFresh(prog, in, RunOptions{Mode: ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.FloatReference(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			wf := math.Min(want[i], float64(window))
			if math.Abs(float64(got[i])-wf) > 3 {
				t.Errorf("trial %d out[%d]: ref %d vs float %.2f", trial, i, got[i], wf)
			}
		}
	}
}

func TestProgramSpikingMatchesReference(t *testing.T) {
	// Full cycle-level spiking execution agrees with the integer
	// reference within a per-crossbar excess compounded over depth. On a
	// lane-eligible crossbar a spiking column outputs the best prefix of
	// the reference semantics, so it exceeds the reference by 0, 1 or 2,
	// never less (docs/INVARIANTS.md, "Integer lanes"); across two layers
	// that one-sided gap can turn into either sign, hence the ±4.
	rng := rand.New(rand.NewSource(102))
	g, ws := buildTestMLP(rng, []int{24, 16, 8})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	for trial := 0; trial < 5; trial++ {
		in := randomInput(rng, 24, window)
		ref, err := runFresh(prog, in, RunOptions{Mode: ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		spiked, err := runFresh(prog, in, RunOptions{Mode: ModeSpiking})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if d := spiked[i] - ref[i]; d < -4 || d > 4 {
				t.Errorf("trial %d out[%d]: spiking %d vs reference %d", trial, i, spiked[i], ref[i])
			}
		}
	}
}

func TestProgramRowSplitCorrectness(t *testing.T) {
	// A 600-input layer exercises row splitting + reduction; the
	// end-to-end result must still track the float pipeline.
	rng := rand.New(rand.NewSource(103))
	g, ws := buildTestMLP(rng, []int{600, 20})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	in := randomInput(rng, 600, window)
	got, err := runFresh(prog, in, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.FloatReference(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		wf := math.Min(want[i], float64(window))
		// Reduction adds one more floor stage; allow slightly looser
		// tracking.
		if math.Abs(float64(got[i])-wf) > 4 {
			t.Errorf("out[%d]: ref %d vs float %.2f", i, got[i], wf)
		}
	}
}

func TestProgramNoisyRunStaysUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	g, ws := buildTestMLP(rng, []int{24, 16, 8})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	in := randomInput(rng, 24, window)
	ref, err := runFresh(prog, in, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := runFresh(prog, in, RunOptions{Mode: ModeSpikingNoisy, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	var dev float64
	for i := range ref {
		dev += math.Abs(float64(noisy[i] - ref[i]))
	}
	if dev/float64(len(ref)) > 8 {
		t.Errorf("mean |noisy − ref| = %.2f counts, want ≤8", dev/float64(len(ref)))
	}
	if _, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy}); err == nil {
		t.Error("noisy mode without rng accepted")
	}
}

// TestProgramInputValidation: a one-row RunBatch rejects a short input and
// an out-of-window count.
func TestProgramInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	g, ws := buildTestMLP(rng, []int{8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFresh(prog, make([]int, 7), RunOptions{}); err == nil {
		t.Error("short input accepted")
	}
	bad := make([]int, 8)
	bad[0] = 1000
	if _, err := runFresh(prog, bad, RunOptions{}); err == nil {
		t.Error("out-of-window count accepted")
	}
}

func TestQuantizeInput(t *testing.T) {
	in := QuantizeInput([]float64{0, 0.5, 1, 1.5, -0.2}, 64)
	want := []int{0, 32, 64, 64, 0}
	for i := range want {
		if in[i] != want[i] {
			t.Errorf("QuantizeInput[%d] = %d, want %d", i, in[i], want[i])
		}
	}
}

// TestQuantizeInputExtremes: a feature whose f·Γ is at or past 2^63, or
// infinite, quantizes to Γ — converting it to int first gives the minimum
// int on amd64, which clamped to 0 — and NaN and the negative extremes
// quantize to 0, on every platform.
func TestQuantizeInputExtremes(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want int
	}{
		{0.5, 32}, {1, 64}, {2, 64},
		{1e17, 64}, {1.5e17, 64}, {1e300, 64}, {math.Inf(1), 64},
		{math.NaN(), 0}, {-1e300, 0}, {math.Inf(-1), 0},
	} {
		if got := QuantizeInput([]float64{tc.f}, 64)[0]; got != tc.want {
			t.Errorf("QuantizeInput(%g) = %d, want %d", tc.f, got, tc.want)
		}
	}
}

// quantizeMathRound is quantizeInto's formula before it stopped calling
// math.Round: the oracle TestQuantizeRoundsLikeMathRound holds it to.
func quantizeMathRound(f float64, window int) int {
	top := float64(window)
	switch x := f * top; {
	case x >= top:
		return window
	case x > 0:
		return int(math.Round(x))
	default:
		return 0
	}
}

// TestQuantizeRoundsLikeMathRound holds quantizeInto's truncate-and-compare
// rounding to math.Round: at every half step k+½ of Γ = 16, 64 and 128 and
// one ulp either side of it (where a rounding subtraction would tip the
// wrong way), at every whole step and its neighbours, and at −0, the
// subnormals, 1 and one ulp either side, NaN and ±Inf.
func TestQuantizeRoundsLikeMathRound(t *testing.T) {
	for _, window := range []int{16, 64, 128} {
		top := float64(window)
		features := []float64{
			math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0x1p-1074 * 3, 0x1p-1023, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
			1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.NaN(), math.Inf(1), math.Inf(-1),
		}
		for k := 0; k <= window; k++ {
			for _, x := range []float64{float64(k), float64(k) + 0.5} {
				f := x / top // exact: Γ is a power of two
				features = append(features, f, math.Nextafter(f, 0), math.Nextafter(f, 2))
			}
		}
		got := QuantizeInput(features, window)
		for i, f := range features {
			if want := quantizeMathRound(f, window); got[i] != want {
				t.Errorf("Γ %d: feature %g (%x) quantizes to %d, math.Round gives %d", window, f, math.Float64bits(f), got[i], want)
			}
		}
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]int{1, 5, 3, 5}); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
	if got := ArgmaxFloat([]float64{0.1, 0.5, 0.9}); got != 2 {
		t.Errorf("ArgmaxFloat = %d, want 2", got)
	}
}
