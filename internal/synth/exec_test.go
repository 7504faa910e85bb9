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
		got, err := prog.Run(in, RunOptions{Mode: ModeReference})
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
	// reference within the per-stage ±1 subtracter artefact, compounded
	// over depth.
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
		ref, err := prog.Run(in, RunOptions{Mode: ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		spiked, err := prog.Run(in, RunOptions{Mode: ModeSpiking})
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
	got, err := prog.Run(in, RunOptions{Mode: ModeReference})
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
	ref, err := prog.Run(in, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := prog.Run(in, RunOptions{Mode: ModeSpikingNoisy, Rng: rng})
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
	if _, err := prog.Run(in, RunOptions{Mode: ModeSpikingNoisy}); err == nil {
		t.Error("noisy mode without rng accepted")
	}
}

func TestProgramInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	g, ws := buildTestMLP(rng, []int{8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(make([]int, 7), RunOptions{}); err == nil {
		t.Error("short input accepted")
	}
	bad := make([]int, 8)
	bad[0] = 1000
	if _, err := prog.Run(bad, RunOptions{}); err == nil {
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

// TestQuantizeBatch: each row of the slab equals QuantizeInput of its
// sample (ragged rows included), and rows are capacity-capped so an
// append through one cannot write into the next.
func TestQuantizeBatch(t *testing.T) {
	batch := [][]float64{{0, 0.5, 1}, {}, {1.5, -0.2}, {0.25}}
	rows := QuantizeBatch(batch, 64)
	if len(rows) != len(batch) {
		t.Fatalf("%d rows, want %d", len(rows), len(batch))
	}
	for i, f := range batch {
		want := QuantizeInput(f, 64)
		if len(rows[i]) != len(want) || cap(rows[i]) != len(want) {
			t.Fatalf("row %d: len/cap = %d/%d, want %d/%d", i, len(rows[i]), cap(rows[i]), len(want), len(want))
		}
		for j := range want {
			if rows[i][j] != want[j] {
				t.Errorf("row %d[%d] = %d, want %d", i, j, rows[i][j], want[j])
			}
		}
	}
	_ = append(rows[0], 99)
	if rows[2][0] != 64 {
		t.Errorf("append through row 0 spilled into row 2: %v", rows[2])
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
