package synth

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpsa/internal/cgraph"
	"fpsa/internal/shard"
	"fpsa/internal/xbar"
)

// featureFixture is one executor RunFeatures is checked on. gathered is
// set when its first stage fills its input into the scratch rather than
// reading the input slab in place, and outputsGathered when its output
// refs are not one run.
type featureFixture struct {
	name                      string
	ex                        *Executor
	gathered, outputsGathered bool
}

// featureFixtures builds the executors the features path is checked on:
// reference and spiking mode on one chip, both on a 3-chip plan of a
// deeper program, noisy spiking, a program whose output refs include
// external input columns (read from the quantized row itself), first and
// last, so an argmax can fall on either kind, and a small conv net in both
// modes — a 2×5×5 input (50 features, two past the last block of four
// quantized together) through a padded 3×3 convolution, whose stages
// gather im2col windows and zero padding from the input, then global
// average pooling and an FC layer whose outputs are read in place.
func featureFixtures(t testing.TB) []featureFixture {
	t.Helper()
	compile := func(seed int64, dims []int) *Program {
		g, ws := buildTestMLP(rand.New(rand.NewSource(seed)), dims)
		opts := DefaultOptions()
		opts.Weights = ws
		_, prog, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	mlp := compile(601, []int{12, 10, 4})
	deep := compile(602, []int{12, 10, 8, 6, 5})
	conv := compileConvFixture(t, 605, 5, 3, false)
	ext := *mlp
	ext.OutputRefs = append(append([]ExecRef{{Stage: ExternalStage, Col: 3}}, mlp.OutputRefs...), ExecRef{Stage: ExternalStage, Col: 0})
	single := func(p *Program, opts RunOptions) *Executor {
		ex, err := NewExecutor(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	sharded := func(opts RunOptions) *Executor {
		plan, err := deep.PartitionStages(3, shard.PolicyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewPipelineExecutor(deep, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Chips() < 2 {
			t.Fatalf("deep program cut into %d chips, want ≥ 2", plan.Chips())
		}
		return ex
	}
	return []featureFixture{
		{"reference", single(mlp, RunOptions{Mode: ModeReference}), false, false},
		{"spiking", single(mlp, RunOptions{Mode: ModeSpiking}), false, false},
		{"sharded-reference", sharded(RunOptions{Mode: ModeReference}), false, false},
		{"sharded-spiking", sharded(RunOptions{Mode: ModeSpiking}), false, false},
		{"noisy", single(mlp, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(603))}), false, false},
		{"external-outputs", single(&ext, RunOptions{Mode: ModeReference}), false, true},
		{"conv-reference", single(conv, RunOptions{Mode: ModeReference}), true, false},
		{"conv-spiking", single(conv, RunOptions{Mode: ModeSpiking}), true, false},
	}
}

// compileConvFixture compiles input (2×hw×hw) → 3×3 conv, outC channels,
// pad 1 → ReLU → (with pool, 2×2 max pool) → global average pool → FC to
// 4 classes → ReLU, with random weights seeded by seed.
func compileConvFixture(t testing.TB, seed int64, hw, outC int, pool bool) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := cgraph.New("conv-features")
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 2, H: hw, W: hw}})
	x = g.MustAdd("conv", cgraph.Conv2D{OutC: outC, Kernel: 3, Stride: 1, Pad: 1}, x)
	x = g.MustAdd("relu1", cgraph.ReLU{}, x)
	if pool {
		x = g.MustAdd("pool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, x)
	}
	x = g.MustAdd("gap", cgraph.GlobalAvgPool{}, x)
	x = g.MustAdd("fc", cgraph.FC{Out: 4}, x)
	g.MustAdd("relu2", cgraph.ReLU{}, x)
	weights := map[string][][]float64{}
	for _, l := range []struct {
		name       string
		rows, cols int
	}{{"conv", 18, outC}, {"fc", outC, 4}} {
		w := make([][]float64, l.rows)
		for i := range w {
			w[i] = make([]float64, l.cols)
			for j := range w[i] {
				w[i][j] = (rng.Float64()*2 - 0.8) / float64(l.rows)
			}
		}
		weights[l.name] = w
	}
	opts := DefaultOptions()
	opts.Weights = func(l string) [][]float64 { return weights[l] }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// specialFeatures are the values quantization has to clamp or round at an
// edge: NaN, ±Inf, signed zeros, either side of 1, far past either end,
// and the smallest positive.
var specialFeatures = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1,
	math.Nextafter(1, 2), math.Nextafter(1, 0), -1, 2, math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, 0.5, -1e-300,
}

// featureOf maps one byte to a feature: most bytes spread over
// [−0.1, 1.39], a quarter land on a half-step (2k+1)/(2Γ) — where
// rounding flips — or one ulp either side of it, and the rest on
// specialFeatures.
func featureOf(b byte, window int) float64 {
	switch {
	case b < 192:
		return float64(b)/128 - 0.1
	case b < 240:
		k := (2*int(b-192) + 1) % (2 * window)
		x := float64(k) / float64(2*window)
		switch b % 3 {
		case 0:
			return math.Nextafter(x, math.Inf(-1))
		case 1:
			return math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	return specialFeatures[b-240]
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFeatures requires RunFeatures on features — classes and output
// counts both — to equal Argmax over RunBatch of every row's
// QuantizeInput(row, Γ) on the same executor, error text for error text.
func checkFeatures(t *testing.T, fx featureFixture, features [][]float64) {
	t.Helper()
	prog := fx.ex.prog
	inputs := make([][]int, len(features))
	for b, f := range features {
		inputs[b] = QuantizeInput(f, prog.Params.SamplingWindow())
	}
	want, wantErr := fx.ex.RunBatch(inputs)
	classes := make([]int, len(features))
	err := fx.ex.RunFeatures(classes, features, true)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%s: classes: error %q, RunBatch's %q", fx.name, errText(err), errText(wantErr))
	}
	n := len(prog.OutputRefs)
	counts := make([]int, len(features)*n)
	err = fx.ex.RunFeatures(counts, features, false)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%s: counts: error %q, RunBatch's %q", fx.name, errText(err), errText(wantErr))
	}
	if wantErr != nil {
		return
	}
	for b, out := range want {
		// An external ref reads the row's own quantized input: checked here
		// against QuantizeInput, since RunBatch reads it the same way.
		in := QuantizeInput(features[b], prog.Params.SamplingWindow())
		for i, ref := range prog.OutputRefs {
			if ref.Stage == ExternalStage && out[i] != in[ref.Col] {
				t.Fatalf("%s: row %d: output %d (input column %d) = %d, want %d", fx.name, b, i, ref.Col, out[i], in[ref.Col])
			}
		}
		if classes[b] != Argmax(out) {
			t.Fatalf("%s: row %d: class %d, Argmax(RunBatch) %d (outputs %v)", fx.name, b, classes[b], Argmax(out), out)
		}
		if got := counts[b*n : (b+1)*n]; !reflect.DeepEqual(got, out) {
			t.Fatalf("%s: row %d: counts %v, RunBatch %v", fx.name, b, got, out)
		}
	}
}

// featureBatch builds rows feature rows of the program's input size from
// raw, one byte per feature, cycling; when bad < 64, row bad%rows is made
// the wrong length instead (empty, one short or one long).
func featureBatch(prog *Program, rows int, bad byte, raw []byte) [][]float64 {
	window := prog.Params.SamplingWindow()
	batch := make([][]float64, rows)
	k := 0
	for r := range batch {
		n := prog.InputSize
		if bad < 64 && r == int(bad)%rows {
			n = [3]int{0, n - 1, n + 1}[bad%3]
		}
		batch[r] = make([]float64, n)
		for i := range batch[r] {
			var b byte
			if len(raw) > 0 {
				b = raw[k%len(raw)]
			}
			batch[r][i] = featureOf(b, window)
			k++
		}
	}
	return batch
}

// TestClassifyFeaturesMatchesRunBatch: the features path equals quantize
// → RunBatch → Argmax on every fixture, over batches of 1 to 17 rows of
// every kind of feature, batches with a wrong-length row (the same error,
// naming the same item), and alternating batch sizes (scratch reuse).
func TestClassifyFeaturesMatchesRunBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	for _, fx := range featureFixtures(t) {
		for trial := 0; trial < 40; trial++ {
			raw := make([]byte, 1+rng.Intn(64))
			rng.Read(raw)
			bad := byte(255)
			if trial%4 == 3 {
				bad = byte(rng.Intn(64))
			}
			checkFeatures(t, fx, featureBatch(fx.ex.prog, 1+rng.Intn(17), bad, raw))
		}
		all := make([]byte, 256)
		for i := range all {
			all[i] = byte(i)
		}
		checkFeatures(t, fx, featureBatch(fx.ex.prog, 24, 255, all))
		checkFeatures(t, fx, nil)
		for _, dst := range [][]int{nil, make([]int, 3)} {
			err := fx.ex.RunFeatures(dst, featureBatch(fx.ex.prog, 2, 255, all), true)
			if want := fmt.Sprintf("synth: %d result slots for 2 rows, want 2", len(dst)); errText(err) != want {
				t.Errorf("%s: %d result slots: error %q, want %q", fx.name, len(dst), errText(err), want)
			}
		}
	}
}

// TestRunFeaturesAllocs pins the features path's allocations: a warm call
// allocates nothing, for classes and for output counts, on one chip and
// on a sharded plan.
func TestRunFeaturesAllocs(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, fx := range featureFixtures(t) {
		for _, rows := range []int{1, 8, 64} {
			features := featureBatch(fx.ex.prog, rows, 255, all)
			for _, classes := range []bool{true, false} {
				dst := make([]int, rows)
				if !classes {
					dst = make([]int, rows*len(fx.ex.prog.OutputRefs))
				}
				if err := fx.ex.RunFeatures(dst, features, classes); err != nil {
					t.Fatal(err)
				}
				if n := testing.AllocsPerRun(5, func() { _ = fx.ex.RunFeatures(dst, features, classes) }); n != 0 {
					t.Errorf("%s: %d rows, classes %t: %v allocs per warm call, want 0", fx.name, rows, classes, n)
				}
			}
		}
	}
}

// TestRunFeaturesReadsInPlace pins where the features path reads from:
// on every MLP fixture each stage reads its source's table in place (stage
// 0 the quantized input slab) and nothing fills the scratch, while the
// conv fixtures' first stage fills its im2col window into the scratch and
// reads it there; a spiking kernel's input is the table the plan names.
// A classes call reads outputs that are one run in place, filling the
// scratch with them only for the external-outputs fixture.
func TestRunFeaturesReadsInPlace(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, fx := range featureFixtures(t) {
		ex := fx.ex
		calls := 0
		kernel := ex.kernel
		ex.kernel = func(c *xbar.Crossbar, dst, src []uint16, batch int) error {
			sp := &ex.stages[calls%len(ex.stages)]
			want, from := ex.x, "the scratch"
			if sp.alias {
				want, from = ex.table(sp.src[0].stage), fmt.Sprintf("table %d", sp.src[0].stage)
			}
			if &src[0] != &want[0] {
				t.Errorf("%s: stage %d's kernel input is not %s", fx.name, calls%len(ex.stages), from)
			}
			calls++
			return kernel(c, dst, src, batch)
		}
		if ex.stages[0].alias == fx.gathered {
			t.Errorf("%s: stage 0 reads a table in place: %t, want %t", fx.name, ex.stages[0].alias, !fx.gathered)
		}
		features := featureBatch(ex.prog, 9, 255, all)
		if err := ex.RunFeatures(make([]int, len(features)*len(ex.prog.OutputRefs)), features, false); err != nil {
			t.Fatal(err)
		}
		if filled := ex.x != nil; filled != fx.gathered {
			t.Errorf("%s: a stage filled the scratch: %t, want %t", fx.name, filled, fx.gathered)
		}
		if err := ex.RunFeatures(make([]int, len(features)), features, true); err != nil {
			t.Fatal(err)
		}
		if filled := ex.x != nil; filled != (fx.gathered || fx.outputsGathered) {
			t.Errorf("%s: the scratch was filled after classes: %t, want %t", fx.name, filled, fx.gathered || fx.outputsGathered)
		}
		if spiking := ex.opts.Mode != ModeReference; spiking != (calls > 0) {
			t.Errorf("%s: %d spiking kernel calls", fx.name, calls)
		}
	}
}

// FuzzClassifyFeaturesVsRunBatch fuzzes the same equivalence: the fixture,
// the row count, an optional wrong-length row and the feature bytes (see
// featureOf) all come from the fuzzer.
func FuzzClassifyFeaturesVsRunBatch(f *testing.F) {
	f.Add(byte(0), byte(0), byte(255), []byte{0, 64, 128, 191})
	f.Add(byte(1), byte(7), byte(255), []byte{240, 241, 242, 243, 244, 245, 246, 247, 248, 249, 250, 251, 252, 253, 254, 255})
	f.Add(byte(3), byte(16), byte(255), []byte{192, 193, 194, 230, 231, 232})
	f.Add(byte(5), byte(4), byte(2), []byte{100, 200, 250})
	f.Add(byte(6), byte(6), byte(255), []byte{0, 64, 128, 191, 192, 193, 194, 240, 241, 242})
	f.Add(byte(7), byte(3), byte(1), []byte{10, 90, 170, 250})
	fixtures := featureFixtures(f)
	f.Fuzz(func(t *testing.T, setup, rows, bad byte, raw []byte) {
		fx := fixtures[int(setup)%len(fixtures)]
		checkFeatures(t, fx, featureBatch(fx.ex.prog, 1+int(rows)%17, bad, raw))
	})
}

// BenchmarkRunFeatures times the executor alone: quantize, every stage's
// fill and kernel, and argmax, with no serving layer above, on two shapes
// with seeded random weights. The MLP cases are serve_mlp_reference's — a
// 16-24-4 MLP in reference mode, at the workload's batch of 64 and at one
// row — whose stages all read their source in place: the executor-only
// baseline beside the root package's BenchmarkEngineOutputsParallel and
// BenchmarkFleetOutputsParallel. The conv cases are offline_conv_spiking's
// network (2×10×10 → 3×3 conv, 8 channels, pad 1 → ReLU → 2×2 max pool →
// global average pool → FC 4 → ReLU) in spiking mode at its batch of 16
// and at one row, where nearly every stage fills its input.
func BenchmarkRunFeatures(b *testing.B) {
	g, ws := buildTestMLP(rand.New(rand.NewSource(611)), []int{16, 24, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, mlp, err := Compile(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	conv := compileConvFixture(b, 613, 10, 8, true)
	rng := rand.New(rand.NewSource(612))
	for _, bc := range []struct {
		name string
		prog *Program
		mode ExecMode
		rows int
	}{
		{"batch64", mlp, ModeReference, 64},
		{"batch1", mlp, ModeReference, 1},
		{"conv-batch16", conv, ModeSpiking, 16},
		{"conv-batch1", conv, ModeSpiking, 1},
	} {
		ex, err := NewExecutor(bc.prog, RunOptions{Mode: bc.mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			features := make([][]float64, bc.rows)
			for r := range features {
				features[r] = make([]float64, bc.prog.InputSize)
				for i := range features[r] {
					features[r][i] = rng.Float64()
				}
			}
			dst := make([]int, bc.rows)
			b.ReportAllocs()
			for b.Loop() {
				if err := ex.RunFeatures(dst, features, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rows), "ns/sample")
		})
	}
}
