package fpsa

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// deployTestNet trains and compiles the small MLP workload shared by the
// engine tests, returning the deployment and its memoized net (the one
// every engine derived from d serves).
func deployTestNet(t testing.TB) (*Deployment, *SpikingNet, Dataset) {
	t.Helper()
	ds := SyntheticDataset(21, 400, 12, 3, 0.08)
	train, test := ds.Split(0.8)
	net, err := TrainMLP(21, []int{12, 16, 3}, train, 25)
	if err != nil {
		t.Fatal(err)
	}
	d := compileMLP(t, net)
	return d, mustNet(t, d), test
}

// engineWith builds an engine over d with the given executor count through
// newEngine, the constructor every fleet replica set goes through; a test
// whose property depends on the executor count uses it.
func engineWith(t testing.TB, d *Deployment, workers int, mode ExecMode) *Engine {
	t.Helper()
	sn, err := d.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(sn, engineConfig{Workers: workers, Mode: mode, Chips: d.Chips()})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineMatchesSerialClassify races N goroutines through one Engine
// and requires every result to equal the serial Classify path.
func TestEngineMatchesSerialClassify(t *testing.T) {
	d, sn, test := deployTestNet(t)
	const samples = 16
	want := make([]int, samples)
	for i := range want {
		label, err := sn.Classify(test.X[i], ModeSpiking)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = label
	}
	eng, err := d.NewEngine(context.Background(), WithMode(ModeSpiking))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				labels, err := eng.ClassifyBatch(context.Background(), test.X[i:i+1])
				if err != nil {
					errs <- err
					return
				}
				label := labels[0]
				if label != want[i] {
					errs <- fmt.Errorf("sample %d: engine %d, serial %d", i, label, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := eng.Stats()
	if s.Requests != goroutines*samples {
		t.Errorf("Requests = %d, want %d", s.Requests, goroutines*samples)
	}
	if s.Workers != 4 || s.Errors != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEngineClassifyBatch(t *testing.T) {
	d, sn, test := deployTestNet(t)
	eng, err := d.NewEngine(context.Background(), WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := test.X[:10]
	labels, err := eng.ClassifyBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range batch {
		want, err := sn.Classify(x, ModeReference)
		if err != nil {
			t.Fatal(err)
		}
		if labels[i] != want {
			t.Errorf("batch[%d] = %d, want %d", i, labels[i], want)
		}
	}
}

// TestEngineClassifyBatchAllocs pins what a one-pass ClassifyBatch
// allocates: its classes and the call's shared state, nothing per sample.
// Quantizing into a slab, a result row per sample and the classes slice
// made it 7 at 1 and 8 samples (30 at 64) before the executors quantized
// into their own scratch and read classes out of their output tables.
func TestEngineClassifyBatchAllocs(t *testing.T) {
	d, _, test := deployTestNet(t)
	ctx := context.Background()
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		eng, err := d.NewEngine(ctx, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8} {
			batch := test.X[:n]
			// Sequential calls take the executors in turn: warm them all.
			for i := 0; i < 2*eng.Stats().Workers; i++ {
				if _, err := eng.ClassifyBatch(ctx, batch); err != nil {
					t.Fatal(err)
				}
			}
			if a := testing.AllocsPerRun(20, func() { _, _ = eng.ClassifyBatch(ctx, batch) }); a > 2 {
				t.Errorf("%v: ClassifyBatch of %d: %v allocs, want ≤ 2", mode, n, a)
			}
		}
		eng.Close()
	}
}

// TestEngineLoneRequest: a lone request on an idle engine runs at once
// as a batch of one; nothing waits for a batch of 8 to fill.
func TestEngineLoneRequest(t *testing.T) {
	d, _, test := deployTestNet(t)
	eng, err := d.NewEngine(context.Background(), WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ClassifyBatch(context.Background(), test.X[:1]); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ExecBatches != 1 || st.MaxExecBatch != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v, want 1 batch of 1 / 1 request", st)
	}
}

func TestNewEngineRejectsBadMode(t *testing.T) {
	d, _, _ := deployTestNet(t)
	if _, err := d.NewEngine(context.Background(), WithMode(ExecMode(9))); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestNoisySequenceAdvances is the regression test for the fixed-RNG
// bug: consecutive ModeSpikingNoisy runs must be able to draw different
// variation (a Monte-Carlo loop measures distinct trials), while
// re-seeding replays the exact sequence.
func TestNoisySequenceAdvances(t *testing.T) {
	_, sn, test := deployTestNet(t)
	x := test.X[0]
	const trials = 6
	sn.SetSeed(5)
	first := make([][]int, trials)
	for i := range first {
		out, err := sn.Outputs(x, ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = out
	}
	differ := false
	for i := 1; i < trials && !differ; i++ {
		for j := range first[i] {
			if first[i][j] != first[0][j] {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Errorf("%d noisy trials produced identical outputs %v; RNG is not advancing", trials, first[0])
	}
	// Re-seeding reproduces the whole sequence.
	sn.SetSeed(5)
	for i := 0; i < trials; i++ {
		out, err := sn.Outputs(x, ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		for j := range out {
			if out[j] != first[i][j] {
				t.Fatalf("trial %d after re-seed: %v, want %v", i, out, first[i])
			}
		}
	}
}
