package synth

import (
	"math/rand"
	"reflect"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/xbar"
)

// TestExecutorReuseMatchesRun proves the program-once/run-many executor
// reproduces a freshly programmed executor per call across repeated runs
// — the property the serving engine's per-worker replicas rely on.
func TestExecutorReuseMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	g, ws := buildTestMLP(rng, []int{16, 12, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		ex, err := NewExecutor(prog, RunOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			in := randomInput(rng, 16, window)
			want, err := runFresh(prog, in, RunOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			got, err := runOne(ex, in)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("mode %d trial %d: executor %v, fresh %v", mode, trial, got, want)
				}
			}
		}
	}
}

// TestExecutorNoisyMatchesRun: two executors programmed from the same rng
// seed draw the same variation.
func TestExecutorNoisyMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	g, ws := buildTestMLP(rng, []int{12, 8, 3})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := randomInput(rng, 12, opts.Params.SamplingWindow())
	want, err := runFresh(prog, in, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOne(ex, in)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("noisy executor %v, fresh %v", got, want)
		}
	}
	if _, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy}); err == nil {
		t.Error("noisy executor without rng accepted")
	}
}

// TestExecutorPlansGatherRuns: construction compiles each stage's InRefs
// into maximal runs of consecutive columns from one source — a dense MLP
// layer reads its whole input in one run — and a ref the stage walk could
// not satisfy (a later stage, the stage itself, a column its source lacks)
// fails construction instead of a batch.
func TestExecutorPlansGatherRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	g, ws := buildTestMLP(rng, []int{16, 12, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(prog, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for si, sp := range ex.stages {
		if len(sp.runs) != 1 || sp.runs[0].n != len(prog.Stages[si].InRefs) {
			t.Fatalf("stage %d: runs %+v, want one run over its %d refs", si, sp.runs, len(prog.Stages[si].InRefs))
		}
	}
	last := len(prog.Stages) - 1
	for _, tc := range []struct {
		name  string
		stage int
		ref   ExecRef
	}{
		{"later stage", 0, ExecRef{Stage: last}},
		{"itself", last, ExecRef{Stage: last}},
		{"input column past the end", 0, ExecRef{Stage: ExternalStage, Col: prog.InputSize}},
		{"negative input column", 0, ExecRef{Stage: ExternalStage, Col: -1}},
		{"stage column past the end", last, ExecRef{Stage: 0, Col: ex.stages[0].cols}},
	} {
		bad := *prog
		bad.Stages = append([]ExecStage(nil), prog.Stages...)
		st := &bad.Stages[tc.stage]
		st.InRefs = append([]ExecRef(nil), st.InRefs...)
		st.InRefs[len(st.InRefs)-1] = tc.ref
		if _, err := NewExecutor(&bad, RunOptions{}); err == nil {
			t.Errorf("%s: executor built over stage %d reading %+v", tc.name, tc.stage, tc.ref)
		}
	}
}

// TestExecutorAliasesIdentityGathers: a stage whose input is all of one
// source's columns in order reads that source's table in place — every
// MLP stage after the first its predecessor's output table, and the first
// the executor's own input slab, into which RunBatch narrowed the caller's
// rows to uint16 (so the caller's []int rows are never a kernel's input by
// type). No stage grows an input table of its own.
func TestExecutorAliasesIdentityGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(309))
	g, ws := buildTestMLP(rng, []int{16, 12, 8, 4})
	opts := DefaultOptions()
	opts.Weights = ws
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var srcs [][]uint16
	ropts := RunOptions{Mode: ModeSpiking}
	ropts.spikeKernel = func(c *xbar.Crossbar, dst, src []uint16, batch int) error {
		srcs = append(srcs, src)
		return c.Simulate(dst, src, batch)
	}
	ex, err := NewExecutor(prog, ropts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	inputs := [][]int{randomInput(rng, 16, window), randomInput(rng, 16, window), randomInput(rng, 16, window)}
	if _, err := ex.RunBatch(inputs); err != nil {
		t.Fatal(err)
	}
	if len(srcs) != len(prog.Stages) || len(srcs) != 3 {
		t.Fatalf("%d kernel calls over %d stages, want 3", len(srcs), len(prog.Stages))
	}
	if !ex.stages[0].alias || &srcs[0][0] != &ex.in[0] {
		t.Error("stage 0 does not read the executor's input slab in place")
	}
	for si, in := range ex.ins {
		if in != nil {
			t.Errorf("stage %d grew an input table of %d counts", si, len(in))
		}
	}
	for si := 1; si < len(srcs); si++ {
		if !ex.stages[si].alias || &srcs[si][0] != &ex.outs[si-1][0] {
			t.Errorf("stage %d's input is not stage %d's output table (alias %v)", si, si-1, ex.stages[si].alias)
		}
	}
}

// TestExecutorRedrawMatchesNew: an executor redrawn with seed s is
// bit-identical to a new one built on the same plan with
// rand.New(rand.NewSource(s)) — on one chip and on three, for an MLP and
// for a convolution whose weight groups serve many stages, with stuck
// cells — redraw after redraw, each after the executor has run. Outside
// the noisy mode Redraw changes nothing.
func TestExecutorRedrawMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	g, ws := buildTestMLP(rng, []int{20, 14, 10, 8, 6})
	opts := DefaultOptions()
	opts.Weights = ws
	_, mlp, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := convNet(t, 308, 2, 5, 5, 3, 3, 1, 1)
	faults := &device.FaultModel{Rate: 0.02, Seed: 5, Remap: true}
	noisy := func(seed int64) RunOptions {
		return RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(seed)), Faults: faults}
	}
	for _, tc := range []struct {
		name  string
		prog  *Program
		chips int
	}{{"mlp", mlp, 1}, {"mlp", mlp, 3}, {"conv", conv, 1}} {
		inputs := batchInputs(rng, 5, tc.prog.InputSize, tc.prog.Params.SamplingWindow())
		ex := pipelineAt(t, tc.prog, tc.chips, noisy(1))
		if ex.Chips() != tc.chips {
			t.Fatalf("%s: %d chips, want %d", tc.name, ex.Chips(), tc.chips)
		}
		for _, seed := range []int64{2, 3, 3, -9} {
			if _, err := ex.RunBatch(inputs); err != nil {
				t.Fatal(err)
			}
			ex.Redraw(seed)
			got, err := ex.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pipelineAt(t, tc.prog, tc.chips, noisy(seed)).RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %d chips, seed %d: redrawn %v, new %v", tc.name, tc.chips, seed, got, want)
			}
		}
	}

	inputs := batchInputs(rng, 5, mlp.InputSize, mlp.Params.SamplingWindow())
	ideal, err := NewExecutor(mlp, RunOptions{Mode: ModeSpiking, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ideal.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ideal.Redraw(4)
	if got, err := ideal.RunBatch(inputs); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("spiking executor after Redraw: %v, %v; want %v", got, err, want)
	}
}
