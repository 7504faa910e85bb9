package fpsa

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
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
		{"negative tracks", []Option{WithTracks(-4)}},
		{"negative chips", []Option{WithChips(-2)}},
		{"negative chip capacity", []Option{WithChipCapacity(-100)}},
		{"negative placement seeds", []Option{WithPlacementSeeds(-1)}},
		{"negative parallelism", []Option{WithParallelism(-8)}},
		{"zero layer dup", []Option{WithLayerDuplication(map[string]int{"fc1": 0})}},
		{"negative layer dup", []Option{WithLayerDuplication(map[string]int{"fc1": -3})}},
		{"zero shard cut", []Option{WithShardCuts(0)}},
		{"negative shard cut", []Option{WithShardCuts(-1, 2)}},
		{"non-increasing cuts", []Option{WithShardCuts(3, 3)}},
		{"decreasing cuts", []Option{WithShardCuts(4, 2)}},
		{"unknown layer dup", []Option{WithLayerDuplication(map[string]int{"no-such-layer": 2})}},
		{"cut beyond chain", []Option{WithShardCuts(9999), WithChips(2)}},
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
	// Zero stays "use the default" everywhere, as the option docs promise
	// — including a zero-rate fault model, which is ideal devices.
	if _, err := Compile(context.Background(), m, WithDuplication(0), WithTracks(0), WithChips(0), WithFaultModel(0, 3)); err != nil {
		t.Errorf("zero-valued knobs must compile with defaults, got %v", err)
	}
}

// TestEngineOptionValidation: serving knobs with nonsensical values are
// rejected with ErrInvalidArgument before any executor is programmed.
func TestEngineOptionValidation(t *testing.T) {
	d, _, _ := trainedDeployment(t)
	ctx := context.Background()
	cases := []struct {
		name string
		opts []EngineOption
	}{
		{"negative workers", []EngineOption{WithWorkers(-1)}},
		{"negative batch", []EngineOption{WithMaxBatch(-2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := d.NewEngine(ctx, tc.opts...); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("NewEngine(%s) = %v, want ErrInvalidArgument", tc.name, err)
			}
		})
	}
	// Zero is "use the default", and the default is NewEngine's own: an
	// explicit 0 builds the engine that no option at all builds.
	for _, tc := range []struct {
		name string
		opts []EngineOption
	}{
		{"no options", nil},
		{"zero workers", []EngineOption{WithWorkers(0)}},
		{"zero batch", []EngineOption{WithMaxBatch(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := d.NewEngine(ctx, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if st := eng.Stats(); st.Workers != 4 || st.MaxBatch != 8 {
				t.Errorf("NewEngine(%s): %d workers, batches of %d, want the defaults 4 and 8", tc.name, st.Workers, st.MaxBatch)
			}
		})
	}
}

// TestFleetOptionValidation: fleet knobs with nonsensical values are
// ErrInvalidArgument from NewFleet, not silently the default — a negative
// autoscaler tick included (it used to become 50ms).
func TestFleetOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  FleetOption
	}{
		{"negative chips", WithFleetChips(-1)},
		{"negative scale interval", WithScaleInterval(-time.Second)},
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
