package mapper

import (
	"math/rand"
	"reflect"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/synth"
)

// TestBuildNetlistFaultedNilIdentical: a nil or inactive fault model
// leaves BuildNetlistFaulted bit-identical to BuildNetlist — no block
// carries a fault stamp and the structure matches exactly.
func TestBuildNetlistFaultedNilIdentical(t *testing.T) {
	co, err := synth.Synthesize(models.MLP500_100(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildNetlist(co, a, device.Params45nm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, fm := range map[string]*device.FaultModel{
		"nil":       nil,
		"zero-rate": {Seed: 7, Remap: true},
	} {
		got, err := BuildNetlistFaulted(co, a, device.Params45nm, nil, fm, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("%s fault model changed the netlist", name)
		}
	}
	for i := range plain.Blocks {
		if plain.Blocks[i].Fault != 0 {
			t.Fatalf("unfaulted netlist block %d carries fault stamp %d", i, plain.Blocks[i].Fault)
		}
	}
}

// TestBuildNetlistFaultedStampsResiduals: an active unremapped model
// stamps PE blocks with positive residual counts, remapping strictly
// reduces the total, and the stamps are deterministic across rebuilds.
func TestBuildNetlistFaultedStampsResiduals(t *testing.T) {
	co, err := synth.Synthesize(models.MLP500_100(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := func(fm *device.FaultModel) int {
		nl, err := BuildNetlistFaulted(co, a, device.Params45nm, nil, fm, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i := range nl.Blocks {
			sum += nl.Blocks[i].Fault
		}
		return sum
	}
	raw := &device.FaultModel{Rate: 0.02, Seed: 13}
	without := total(raw)
	if without == 0 {
		t.Fatal("unremapped 2% fault rate stamped no residuals")
	}
	if again := total(raw); again != without {
		t.Fatalf("rebuild stamped %d residual cells, first build %d", again, without)
	}
	with := total(&device.FaultModel{Rate: 0.02, Seed: 13, Remap: true})
	if with >= without {
		t.Fatalf("remapping left %d residual cells, no-remap netlist has %d", with, without)
	}
}

// TestBuildNetlistFaultedUnitBase: the unit base offsets the global
// group IDs fault maps key on, so a shard rebuilt at its global offset
// stamps different residuals than one rebuilt as if it started at zero.
func TestBuildNetlistFaultedUnitBase(t *testing.T) {
	co, err := synth.Synthesize(models.MLP500_100(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 1)
	if err != nil {
		t.Fatal(err)
	}
	fm := &device.FaultModel{Rate: 0.02, Seed: 3}
	at0, err := BuildNetlistFaulted(co, a, device.Params45nm, nil, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	at7, err := BuildNetlistFaulted(co, a, device.Params45nm, nil, fm, 7)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range at0.Blocks {
		if at0.Blocks[i].Fault != at7.Blocks[i].Fault {
			same = false
			break
		}
	}
	if same {
		t.Fatal("unit base 7 stamped the same fault population as base 0")
	}
}

// TestBuildNetlistFaultedMatchesExecutor: the residuals the netlist
// stamps and the faults an executor programs come from one derivation on
// one model, so per group they agree — summed over first copies, the
// netlist's stamps are exactly the executor's FaultedCells — whichever of
// the two asks the model first.
func TestBuildNetlistFaultedMatchesExecutor(t *testing.T) {
	dims := map[string][2]int{"fc1": {784, 500}, "fc2": {500, 100}, "fc3": {100, 10}}
	rng := rand.New(rand.NewSource(8))
	weights := make(map[string][][]float64)
	for _, layer := range []string{"fc1", "fc2", "fc3"} {
		w := make([][]float64, dims[layer][0])
		for r := range w {
			w[r] = make([]float64, dims[layer][1])
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) / float64(len(w))
			}
		}
		weights[layer] = w
	}
	opts := synth.DefaultOptions()
	opts.Weights = func(layer string) [][]float64 { return weights[layer] }
	co, prog, err := synth.Compile(models.MLP500_100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(co, 2)
	if err != nil {
		t.Fatal(err)
	}
	stamped := func(fm *device.FaultModel) int {
		nl, err := BuildNetlistFaulted(co, a, opts.Params, nil, fm, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i := range nl.Blocks {
			if nl.Blocks[i].Copy == 0 {
				sum += nl.Blocks[i].Fault
			}
		}
		return sum
	}
	programmed := func(fm *device.FaultModel) int {
		ex, err := synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeReference, Faults: fm})
		if err != nil {
			t.Fatal(err)
		}
		return ex.FaultedCells()
	}
	for _, remap := range []bool{false, true} {
		fm := &device.FaultModel{Rate: 0.03, Seed: 29, Seeds: map[string]int64{"fc2": 4}, Remap: remap}
		before := stamped(fm)
		cells := programmed(fm)
		after := stamped(fm)
		if before == 0 {
			t.Fatalf("remap=%v: 3%% fault rate stamped no residuals", remap)
		}
		if before != cells || after != cells {
			t.Fatalf("remap=%v: netlist stamps %d (before programming) / %d (after), executor programmed %d faulted cells", remap, before, after, cells)
		}
	}
}
