package synth

import (
	"math/rand"
	"testing"
)

// TestExecutorReuseMatchesRun proves the program-once/run-many executor
// reproduces the per-call Program.Run path across repeated runs — the
// property the serving engine's per-worker replicas rely on.
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
			want, err := prog.Run(in, RunOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("mode %d trial %d: executor %v, Run %v", mode, trial, got, want)
				}
			}
		}
	}
}

// TestExecutorNoisyMatchesRun: an executor programmed from the same rng
// seed draws the same variation as one Program.Run call.
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
	want, err := prog.Run(in, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy, Rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("noisy executor %v, Run %v", got, want)
		}
	}
	if _, err := NewExecutor(prog, RunOptions{Mode: ModeSpikingNoisy}); err == nil {
		t.Error("noisy executor without rng accepted")
	}
	if ex.Mode() != ModeSpikingNoisy {
		t.Errorf("Mode = %d", ex.Mode())
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
