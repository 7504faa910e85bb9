package fpsa

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestCompileOptionValidation: every compile knob rejects nonsensical
// values up front with ErrInvalidArgument instead of letting them flow
// into allocation or partitioning.
func TestCompileOptionValidation(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative duplication", []Option{WithDuplication(-1)}},
		{"negative chips", []Option{WithChips(-2)}},
		{"negative chip capacity", []Option{WithChipCapacity(-100)}},
		{"negative placement seeds", []Option{WithPlacementSeeds(-1)}},
		{"negative parallelism", []Option{WithParallelism(-8)}},
		{"negative fault rate", []Option{WithFaultModel(-0.1, 1)}},
		{"fault rate above 1", []Option{WithFaultModel(1.5, 1)}},
		{"NaN fault rate", []Option{WithFaultModel(math.NaN(), 1)}},
		{"NaN drift", []Option{WithFaultMap(FaultMap{Rate: 0.01, Drift: math.NaN()})}},
		{"drift of 1", []Option{WithFaultMap(FaultMap{Rate: 0.01, Drift: 1})}},
		{"negative drift", []Option{WithFaultMap(FaultMap{Rate: 0.01, Drift: -0.2})}},
		{"negative read sigma", []Option{WithFaultMap(FaultMap{ReadSigma: -1e-6})}},
		{"NaN read sigma", []Option{WithFaultMap(FaultMap{ReadSigma: math.NaN()})}},
		{"stuck-high fraction above 1", []Option{WithFaultMap(FaultMap{Rate: 0.01, StuckHighFrac: 2})}},
		{"negative layer seed", []Option{WithFaultMap(FaultMap{Rate: 0.01, LayerSeeds: map[string]int64{"fc1": -5}})}},
		{"unknown fault layer", []Option{WithFaultMap(FaultMap{Rate: 0.01, LayerSeeds: map[string]int64{"no-such-layer": 3}})}},
		{"fault model and map together", []Option{WithFaultModel(0.01, 1), WithFaultMap(FaultMap{Rate: 0.01})}},
		{"fault map and model together", []Option{WithFaultMap(FaultMap{Rate: 0.01}), WithFaultModel(0.01, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(context.Background(), m, tc.opts...); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("Compile(%s) = %v, want ErrInvalidArgument", tc.name, err)
			}
		})
	}
	// A fault seed must name a weight layer: LeNet's max pools run on
	// shared crossbars labelled for no one layer, so their seeds would be
	// silent no-ops. Autotune shares Compile's checks.
	lenet, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"pool1", "pool2"} {
		t.Run("LeNet "+layer+" fault seed", func(t *testing.T) {
			opt := WithFaultMap(FaultMap{Rate: 0.01, LayerSeeds: map[string]int64{layer: 3}})
			if _, err := Compile(context.Background(), lenet, opt); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("Compile = %v, want ErrInvalidArgument", err)
			}
			if _, _, err := Autotune(context.Background(), lenet, MinLatency, opt, WithAutotuneRefine(0)); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("Autotune = %v, want ErrInvalidArgument", err)
			}
		})
	}
	if _, err := Compile(context.Background(), lenet, WithFaultMap(FaultMap{Rate: 0.01, LayerSeeds: map[string]int64{"conv1": 3, "fc2": 4}})); err != nil {
		t.Errorf("weight-layer fault seeds must compile, got %v", err)
	}
	// Zero stays "use the default" everywhere, as the option docs promise
	// — including a zero-rate fault model, which is ideal devices.
	if _, err := Compile(context.Background(), m, WithDuplication(0), WithChips(0), WithFaultModel(0, 3)); err != nil {
		t.Errorf("zero-valued knobs must compile with defaults, got %v", err)
	}
}

// TestEngineOptionValidation pins the engine Deployment.NewEngine builds:
// 4 executors and chunks of 8, a shape no option changes. (An unknown
// WithMode is rejected in TestStatsWireKeysPinned.)
func TestEngineOptionValidation(t *testing.T) {
	d, _, _ := trainedDeployment(t)
	t.Run("no options", func(t *testing.T) {
		eng, err := d.NewEngine(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if st := eng.Stats(); st.Workers != 4 || st.MaxBatch != 8 {
			t.Errorf("NewEngine: %d workers, batches of %d, want 4 and 8", st.Workers, st.MaxBatch)
		}
	})
}

// TestFleetOptionValidation: fleet knobs with nonsensical values are
// ErrInvalidArgument from NewFleet, not silently the default.
func TestFleetOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  FleetOption
	}{
		{"negative chips", WithFleetChips(-1)},
		{"negative quota", WithTenant("t", QoSGold, -1)},
		{"unknown class", WithTenant("t", QoSClass(7), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFleet(tc.opt)
			if !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("NewFleet(%s) = %v, want ErrInvalidArgument", tc.name, err)
			}
			if f != nil {
				f.Close()
			}
		})
	}
}
