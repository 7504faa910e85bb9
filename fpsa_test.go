package fpsa

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestLoadBenchmark(t *testing.T) {
	names := BenchmarkModels()
	if len(names) != 7 {
		t.Fatalf("BenchmarkModels = %v", names)
	}
	m, err := LoadBenchmark("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "VGG16" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Weights() < 138e6 || m.Weights() > 139e6 {
		t.Errorf("Weights = %d", m.Weights())
	}
	if _, err := LoadBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCompileZeroModelRejected(t *testing.T) {
	if _, err := Compile(context.Background(), Model{}); err == nil {
		t.Error("zero Model compiled")
	}
}

func TestCompileAndPerformance(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m, WithDuplication(4))
	if err != nil {
		t.Fatal(err)
	}
	pes, _, clbs := d.Blocks()
	if pes == 0 || clbs == 0 {
		t.Fatalf("blocks: pes=%d clbs=%d", pes, clbs)
	}
	if d.AreaMM2() <= 0 {
		t.Error("non-positive area")
	}
	groups, coreOps := d.CoreOps()
	if groups == 0 || coreOps == 0 {
		t.Error("no core-ops")
	}
	p, err := d.Performance()
	if err != nil {
		t.Fatal(err)
	}
	if p.ThroughputSPS <= 0 || p.PerfOPS <= 0 {
		t.Errorf("performance: %+v", p)
	}
	for _, field := range []string{"throughput", "uJ/sample", "mW"} {
		if !strings.Contains(p.String(), field) {
			t.Errorf("summary String() missing %q: %s", field, p.String())
		}
	}
}

func TestModelBuilderChain(t *testing.T) {
	m, err := NewModelBuilder("custom", 3, 8, 8).
		Conv2D(8, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		Conv2D(8, 3, 1, 1).ReLU().
		GlobalAvgPool().
		FC(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights() == 0 || m.Ops() == 0 {
		t.Error("custom model has no weights/ops")
	}
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Performance(); err != nil {
		t.Fatal(err)
	}
}

func TestModelBuilderErrorsStick(t *testing.T) {
	_, err := NewModelBuilder("bad", 3, 8, 8).
		FC(10). // FC on non-flat input
		ReLU().
		Build()
	if err == nil {
		t.Error("invalid chain built")
	}
}

func TestPlaceAndRouteSmallModel(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m, WithDuplication(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("routing did not converge: %+v", stats)
	}
	if stats.MeanHops <= 0 || stats.MeanHops > 12 {
		t.Errorf("mean hops = %.1f, want small (annealed locality)", stats.MeanHops)
	}
	// Feed the measured hops back into the perf model.
	p, err := d.PerformanceWithHops(int(stats.MeanHops + 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if p.ThroughputSPS <= 0 {
		t.Error("routed-hops performance not positive")
	}
	// The final Figure 5 artifact: a verified chip configuration.
	info, err := d.Bitstream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.ProgrammedCells == 0 || info.SBCells == 0 || info.CBCells == 0 {
		t.Errorf("bitstream empty: %+v", info)
	}
	if info.TrackOccupancy > 2048 {
		t.Errorf("occupancy %d beyond channel width", info.TrackOccupancy)
	}
}

func TestBitstreamRequiresPlaceAndRoute(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bitstream(context.Background()); err == nil {
		t.Error("Bitstream without PlaceAndRoute accepted")
	}
}

func TestTrainDeployClassify(t *testing.T) {
	ds := SyntheticDataset(11, 600, 12, 3, 0.08)
	train, test := ds.Split(0.7)
	net, err := TrainMLP(11, []int{12, 16, 3}, train, 40)
	if err != nil {
		t.Fatal(err)
	}
	if acc := net.Accuracy(test); acc < 0.9 {
		t.Fatalf("float accuracy = %.3f", acc)
	}
	sn := deployMLP(t, net)
	if sn.Window() != 64 {
		t.Errorf("window = %d", sn.Window())
	}
	agree := 0
	const n = 40
	for i := 0; i < n; i++ {
		label, err := sn.Classify(test.X[i], ModeReference)
		if err != nil {
			t.Fatal(err)
		}
		if label == net.Predict(test.X[i]) {
			agree++
		}
	}
	if frac := float64(agree) / n; frac < 0.8 {
		t.Errorf("reference/float agreement = %.2f", frac)
	}
	// Spiking and noisy modes run end to end.
	if _, err := sn.Classify(test.X[0], ModeSpiking); err != nil {
		t.Fatal(err)
	}
	sn.SetSeed(5)
	if _, err := sn.Classify(test.X[0], ModeSpikingNoisy); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Classify(test.X[0], ExecMode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestDeployCustomCNN(t *testing.T) {
	m, err := NewModelBuilder("stripes", 1, 8, 8).
		Conv2D(2, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		GlobalAvgPool().
		FC(2).ReLU().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	layers := m.WeightLayers()
	if len(layers) != 2 {
		t.Fatalf("WeightLayers = %v", layers)
	}
	horiz := []float64{1, 1, 1, 0, 0, 0, -1, -1, -1}
	vert := []float64{1, 0, -1, 1, 0, -1, 1, 0, -1}
	conv := make([][]float64, 9)
	for r := range conv {
		conv[r] = []float64{horiz[r], vert[r]}
	}
	d, err := Compile(context.Background(), m, WithWeights(map[string][][]float64{
		layers[0]: conv,
		layers[1]: {{1, 0}, {0, 1}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	stripes := func(dir int) []float64 {
		img := make([]float64, 64)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				k := y
				if dir == 1 {
					k = x
				}
				if k%2 == 0 {
					img[y*8+x] = 0.9
				} else {
					img[y*8+x] = 0.1
				}
			}
		}
		return img
	}
	for dir := 0; dir < 2; dir++ {
		label, err := sn.Classify(stripes(dir), ModeReference)
		if err != nil {
			t.Fatal(err)
		}
		if label != dir {
			t.Errorf("stripes dir %d classified as %d", dir, label)
		}
	}
	// Missing weights must be rejected.
	bare, err := Compile(context.Background(), m, WithWeights(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.NewNet(nil); err == nil {
		t.Error("NewNet without weights accepted")
	}
}

// TestClassifyBatchMatchesSerial: the public batched classification path
// returns the same labels as per-sample Classify in the deterministic
// modes, and a batch's raw outputs replay deterministically per SetSeed in
// the noisy mode (a batch shares one programming draw, so it is its own
// sequence, distinct from per-sample draws).
func TestClassifyBatchMatchesSerial(t *testing.T) {
	ds := SyntheticDataset(21, 300, 10, 3, 0.08)
	train, _ := ds.Split(0.8)
	net, err := TrainMLP(21, []int{10, 12, 3}, train, 20)
	if err != nil {
		t.Fatal(err)
	}
	sn := deployMLP(t, net)
	batch := train.X[:9]
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		labels, err := sn.ClassifyBatch(batch, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(labels) != len(batch) {
			t.Fatalf("mode %v: %d labels for %d samples", mode, len(labels), len(batch))
		}
		for i, x := range batch {
			want, err := sn.Classify(x, mode)
			if err != nil {
				t.Fatal(err)
			}
			if labels[i] != want {
				t.Errorf("mode %v sample %d: batch %d, serial %d", mode, i, labels[i], want)
			}
		}
	}
	sn.SetSeed(3)
	a, err := outputsBatch(sn, batch, ModeSpikingNoisy)
	if err != nil {
		t.Fatal(err)
	}
	sn.SetSeed(3)
	b, err := outputsBatch(sn, batch, ModeSpikingNoisy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("noisy batch not deterministic per seed: item %d col %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	// An empty batch in a known mode is a no-op that draws nothing; in an
	// unknown mode it is rejected like any other batch.
	sn.SetSeed(3)
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		if out, err := sn.ClassifyBatch(nil, mode); err != nil || len(out) != 0 {
			t.Errorf("mode %v: empty ClassifyBatch: %v, %v", mode, out, err)
		}
	}
	if c, err := outputsBatch(sn, batch, ModeSpikingNoisy); err != nil || !equalOutputs(c, a) {
		t.Errorf("noisy batch after empty ones: %v, want the first draw after SetSeed", err)
	}
	if _, err := sn.ClassifyBatch(nil, ExecMode(9)); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("empty ClassifyBatch in an unknown mode: %v, want ErrInvalidArgument", err)
	}
	if _, err := sn.ClassifyBatch(batch, ExecMode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestRejectedCallKeepsVariationStream: a call that is rejected — a
// wrong-length sample, an unknown mode — draws nothing from the SetSeed
// stream, so the noisy calls after it replay exactly as if it had never
// been made, batched and single-sample alike.
func TestRejectedCallKeepsVariationStream(t *testing.T) {
	ds := SyntheticDataset(21, 300, 10, 3, 0.08)
	train, _ := ds.Split(0.8)
	net, err := TrainMLP(21, []int{10, 12, 3}, train, 20)
	if err != nil {
		t.Fatal(err)
	}
	sn := deployMLP(t, net)
	batch := train.X[:9]
	short := batch[0][:4]
	// trial runs one batched and one single-sample noisy call from
	// SetSeed(3), after whatever reject does.
	trial := func(reject func()) [][]int {
		t.Helper()
		sn.SetSeed(3)
		reject()
		outs, err := outputsBatch(sn, batch, ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		one, err := sn.Outputs(batch[0], ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		return append(outs, one)
	}
	want := trial(func() {})
	for name, reject := range map[string]func() error{
		"batch with a wrong-length sample": func() error {
			_, err := outputsBatch(sn, [][]float64{batch[0], short}, ModeSpikingNoisy)
			return err
		},
		"wrong-length sample": func() error {
			_, err := sn.Outputs(short, ModeSpikingNoisy)
			return err
		},
		"batch in an unknown mode": func() error {
			_, err := outputsBatch(sn, batch, ExecMode(9))
			return err
		},
		"sample in an unknown mode": func() error {
			_, err := sn.Outputs(batch[0], ExecMode(9))
			return err
		},
	} {
		got := trial(func() {
			if reject() == nil {
				t.Fatalf("%s accepted", name)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("a rejected %s advanced the variation stream: the calls after it differ from the clean replay", name)
		}
	}
}

// TestSpikingNetRejectsWrongLength: a sample of the wrong length is
// ErrInvalidArgument from every SpikingNet run method, and a batch's
// error names its first bad item.
func TestSpikingNetRejectsWrongLength(t *testing.T) {
	ds := SyntheticDataset(22, 60, 10, 3, 0.08)
	net, err := TrainMLP(22, []int{10, 12, 3}, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn := deployMLP(t, net)
	good, short, long := ds.X[0], ds.X[0][:4], append(append([]float64{}, ds.X[0]...), 0.5)
	_, errOne := sn.Outputs(short, ModeReference)
	_, errClass := sn.Classify(long, ModeSpiking)
	_, errBatch := outputsBatch(sn, [][]float64{good, short, long}, ModeReference)
	_, errClasses := sn.ClassifyBatch([][]float64{good, good, long}, ModeSpikingNoisy)
	for _, tc := range []struct {
		name, want string
		err        error
	}{
		{"Outputs", "input length 4, want 10", errOne},
		{"Classify", "input length 11, want 10", errClass},
		{"outputsBatch", "batch item 1: input length 4, want 10", errBatch},
		{"ClassifyBatch", "batch item 2: input length 11, want 10", errClasses},
	} {
		if !errors.Is(tc.err, ErrInvalidArgument) || !strings.HasSuffix(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrInvalidArgument ending %q", tc.name, tc.err, tc.want)
		}
	}
}
