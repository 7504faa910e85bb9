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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(context.Background(), m, tc.opts...); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("Compile(%s) = %v, want ErrInvalidArgument", tc.name, err)
			}
		})
	}
	// One chip holds every replica, so the capacity bounds their whole
	// spend: 64 replicas of MLP-500-100's 11 PEs are 704 PEs, not 11.
	t.Run("replicas beyond chip capacity", func(t *testing.T) {
		if _, err := Compile(context.Background(), m, WithDuplication(64), WithChipCapacity(100)); !errors.Is(err, ErrCapacity) {
			t.Errorf("Compile = %v, want ErrCapacity", err)
		}
	})
	// Zero stays "use the default" everywhere, as the option docs promise
	// — including a zero-rate fault model, which is ideal devices.
	if _, err := Compile(context.Background(), m, WithDuplication(0), WithChips(0), WithFaultModel(0, 3)); err != nil {
		t.Errorf("zero-valued knobs must compile with defaults, got %v", err)
	}
}

// TestEngineOptionValidation pins the engine Deployment.NewEngine builds:
// 4 executors and MaxBatch 8, a shape no option changes. (An unknown
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
