package fpsa

import (
	"context"
	"testing"
)

// withFaultModelNoRemap is WithFaultModel with the mapper's spare-row/
// column remapping off, so stuck cells land on live weights.
func withFaultModelNoRemap(rate float64, seed int64) Option {
	return func(s *compileSettings) { s.cfg.Faults = faultScenario{rate: rate, seed: seed, noRemap: true} }
}

// faultedOutputs classifies the test split through an engine with the
// given executor count and returns the labels plus the engine stats.
func faultedOutputs(t *testing.T, d *Deployment, workers int, test Dataset) ([]int, EngineStats) {
	t.Helper()
	eng := engineWith(t, d, workers, ModeReference)
	defer eng.Close()
	labels := make([]int, len(test.X))
	for i, x := range test.X {
		got, err := eng.ClassifyBatch(context.Background(), [][]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		labels[i] = got[0]
	}
	return labels, eng.Stats()
}

// TestFaultModelWorkerCountInvariant: fault maps derive from (seed,
// group), never from the serving replica, so a faulted engine classifies
// identically at any worker count and every replica reports the same
// per-deployment residual stuck-cell count.
func TestFaultModelWorkerCountInvariant(t *testing.T) {
	d, _, test := trainedDeployment(t, withFaultModelNoRemap(0.03, 17))
	test.X = test.X[:40]
	want, stats1 := faultedOutputs(t, d, 1, test)
	if stats1.FaultedCells == 0 {
		t.Fatal("unremapped 3% fault rate reports no faulted cells")
	}
	for _, workers := range []int{2, 4} {
		got, stats := faultedOutputs(t, d, workers, test)
		if stats.FaultedCells != stats1.FaultedCells {
			t.Fatalf("%d workers report %d faulted cells, 1 worker %d",
				workers, stats.FaultedCells, stats1.FaultedCells)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d workers: sample %d classified %d, 1 worker said %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFaultModelEndToEnd: the compiled fault scenario flows Compile →
// NewNet → NewEngine. An unremapped scenario must surface residual
// faults in the engine stats; the same scenario
// with remapping carries strictly fewer.
func TestFaultModelEndToEnd(t *testing.T) {
	noRemap, _, _ := trainedDeployment(t, withFaultModelNoRemap(0.05, 3))
	remap, _, test := trainedDeployment(t, WithFaultModel(0.05, 3))
	_, statsN := faultedOutputs(t, noRemap, 1, Dataset{X: test.X[:4], Y: test.Y[:4], Classes: test.Classes})
	_, statsR := faultedOutputs(t, remap, 1, Dataset{X: test.X[:4], Y: test.Y[:4], Classes: test.Classes})
	if statsN.FaultedCells == 0 {
		t.Fatal("unremapped 5% fault rate reports no faulted cells")
	}
	if statsR.FaultedCells >= statsN.FaultedCells {
		t.Fatalf("remapping left %d faulted cells, no-remap deployment has %d",
			statsR.FaultedCells, statsN.FaultedCells)
	}
}

// TestFaultModelZeroRateNetIdentical: the public zero-rate equivalence —
// a deployment compiled with a zero-rate model classifies bit-identically
// to one compiled with no model, in every execution mode.
func TestFaultModelZeroRateNetIdentical(t *testing.T) {
	plain, _, test := trainedDeployment(t)
	zero, _, _ := trainedDeployment(t, WithFaultModel(0, 99))
	a, err := plain.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := zero.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
		a.SetSeed(4)
		b.SetSeed(4)
		for i := 0; i < 8; i++ {
			wa, err := a.Outputs(test.X[i], mode)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := b.Outputs(test.X[i], mode)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wa {
				if wa[j] != wb[j] {
					t.Fatalf("%v: sample %d out[%d]: plain %d, zero-rate %d", mode, i, j, wa[j], wb[j])
				}
			}
		}
	}
}

// TestFaultModelCacheKeySeparation: a faulted deployment must never hit
// the ideal-device cache entry (placement penalties differ), while an
// inactive model shares it — bit-identical hardware, same artifacts.
func TestFaultModelCacheKeySeparation(t *testing.T) {
	d, _, _ := trainedDeployment(t)
	ideal := d.cacheKey(0)
	zero, _, _ := trainedDeployment(t, WithFaultModel(0, 5))
	if zero.cacheKey(0) != ideal {
		t.Fatal("inactive fault model changed the cache key")
	}
	faulted, _, _ := trainedDeployment(t, WithFaultModel(0.02, 5))
	if faulted.cacheKey(0) == ideal {
		t.Fatal("active fault model kept the ideal-device cache key")
	}
	reseed, _, _ := trainedDeployment(t, WithFaultModel(0.02, 6))
	if reseed.cacheKey(0) == faulted.cacheKey(0) {
		t.Fatal("different fault seeds share a cache key")
	}
	norm, _, _ := trainedDeployment(t, withFaultModelNoRemap(0.02, 5))
	if norm.cacheKey(0) == faulted.cacheKey(0) {
		t.Fatal("remap and no-remap deployments share a cache key")
	}
}
