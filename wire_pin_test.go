package fpsa

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// jsonKeys marshals v and returns the sorted key set of the JSON object it
// became.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("%s is not a JSON object: %v", raw, err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatsWireKeysPinned pins what fpsa-serve puts on the wire: the JSON
// key sets of /v1/stats (an EngineStats: Go field names) and /fleetz (a
// FleetStats with its per-model and per-swap objects: snake case), the
// spellings of the class and mode names, and that an unknown mode is
// ErrInvalidArgument at both places a caller can hand one in. Where the
// stats types are declared may move; none of this may.
func TestStatsWireKeysPinned(t *testing.T) {
	ctx := context.Background()
	d1, _, test := fleetTestPair(t)

	eng, err := d1.NewEngine(ctx, WithWorkers(1), WithMode(ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(ctx, test.X[0]); err != nil {
		t.Fatal(err)
	}
	engineKeys := jsonKeys(t, eng.Stats())
	eng.Close()
	wantEngine := []string{
		"Chips", "Errors", "ExecBatches", "FaultedCells", "MaxBatch", "MaxExecBatch", "MeanExecBatch",
		"P50LatencyUS", "P999LatencyUS", "P99LatencyUS", "QueueDepth", "Requests", "Shed",
		"SparseKernels", "SpikeDensity", "ThroughputSPS", "UptimeS", "Workers",
	}
	if !reflect.DeepEqual(engineKeys, wantEngine) {
		t.Errorf("/v1/stats keys\n got %q\nwant %q", engineKeys, wantEngine)
	}

	f, err := NewFleet(WithFleetChips(8))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddModel(ctx, "m", d1, WithModelEngine(WithMode(ModeReference))); err != nil {
		t.Fatal(err)
	}
	net2, err := TrainMLP(11, []int{12, 10, 8, 3}, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.CompileAndSwap(ctx, "m", net2.Model(), WithWeightSource(net2.WeightSource())); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if len(st.Models) != 1 || len(st.Swaps) != 1 {
		t.Fatalf("fleet holds %d models and %d swaps, want 1 and 1", len(st.Models), len(st.Swaps))
	}
	for _, tc := range []struct {
		what string
		v    any
		want []string
	}{
		{"/fleetz", st, []string{"chips", "chips_used", "models", "swaps"}},
		{"/fleetz models.*", st.Models["m"], []string{
			"errors", "in_flight", "p50_latency_us", "p999_latency_us", "p99_latency_us", "qps", "queue_depth",
			"replicas", "requests", "shed_overload", "shed_quota", "version", "window",
		}},
		{"/fleetz swaps[]", st.Swaps[0], []string{"at", "duration_ms", "from_version", "model", "replicas", "to_version"}},
	} {
		if got := jsonKeys(t, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s keys\n got %q\nwant %q", tc.what, got, tc.want)
		}
	}

	if got := QoSGold.String(); got != "gold" {
		t.Errorf("QoSGold.String() = %q, want gold", got)
	}
	if got := ModeSpikingNoisy.String(); got != "noisy" {
		t.Errorf("ModeSpikingNoisy.String() = %q, want noisy", got)
	}
	if _, err := d1.NewEngine(ctx, WithMode(ExecMode(9))); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("NewEngine(WithMode(ExecMode(9))) = %v, want ErrInvalidArgument", err)
	}
	sn, err := d1.NewNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Classify(test.X[0], ExecMode(9)); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("SpikingNet.Classify(…, ExecMode(9)) = %v, want ErrInvalidArgument", err)
	}
}
