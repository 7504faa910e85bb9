package synth

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fpsa/internal/coreop"
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

// TestExecutorPlansGatherRuns: construction compiles each stage's InRefs,
// and the OutputRefs, into one source per row — column col of a table w
// wide, a zero ref the zero slot at width 0 — so a dense MLP layer reads
// its source's columns in order, and a ref the stage walk could not
// satisfy (a later stage, the stage itself, a column its source lacks)
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
	// columns is n sources reading columns 0..n-1 of stage's table, w wide.
	columns := func(stage, n, w int) []source {
		src := make([]source, n)
		for r := range src {
			src[r] = source{stage: int32(stage), col: int32(r), w: int32(w)}
		}
		return src
	}
	if len(ex.stages) != 2 {
		t.Fatalf("%d stages, want 2", len(ex.stages))
	}
	for si, want := range [][]source{columns(ExternalStage, 16, 16), columns(0, 12, 12)} {
		if got := ex.stages[si].src; !reflect.DeepEqual(got, want) {
			t.Errorf("stage %d: sources %v, want %v", si, got, want)
		}
	}
	if want := columns(1, 4, 4); !reflect.DeepEqual(ex.out, want) || !ex.outRun {
		t.Errorf("outputs: sources %v (one run %t), want %v as one run", ex.out, ex.outRun, want)
	}
	// A padded convolution's rows read the input slab and the zero slot.
	conv, _ := convNet(t, 306, 2, 4, 4, 3, 3, 1, 1)
	cex, err := NewExecutor(conv, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for si, st := range conv.Stages {
		for r, ref := range st.InRefs {
			want := source{stage: int32(ref.Stage), col: int32(ref.Col), w: int32(conv.InputSize)}
			switch {
			case ref.Stage == ZeroStage:
				want = source{stage: ZeroStage}
				zeros++
			case ref.Stage >= 0:
				want.w = int32(cex.stages[ref.Stage].cols)
			}
			if got := cex.stages[si].src[r]; got != want {
				t.Fatalf("conv stage %d row %d (%+v): source %+v, want %+v", si, r, ref, got, want)
			}
		}
	}
	if zeros == 0 {
		t.Fatal("padded convolution read no zero rows")
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
// type). No stage fills the executor's scratch.
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
	if ex.x != nil {
		t.Errorf("a stage filled the scratch (%d counts)", len(ex.x))
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

// gatherProgram builds a Program by hand from data, read a byte at a time
// (zero once it runs out), with weights and η from rng: the input width,
// the stage count, then per stage a pattern for its refs and a weight
// group — new, or an earlier one of the same row count — and last the
// outputs' pattern. A pattern reads from zero, the input or any earlier
// stage:
//
//	0 refs drawn one by one — zero, an input column or any earlier
//	  stage's column, in any order, repeats allowed;
//	1 all of one table's columns in order, an alias (of any earlier
//	  stage, not only the previous one);
//	2 all of one table's columns rotated by at least one: full width, but
//	  not an alias;
//	3 a run of consecutive columns from any column, most often shorter
//	  than the table: offset, or from column 0 but not all of it.
func gatherProgram(data []byte, rng *rand.Rand) *Program {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	params := DefaultOptions().Params
	maxW := device.NewAdd(device.Cell4Bit, params.CellsPerWeight).MaxWeight()
	p := &Program{Graph: &coreop.Graph{Name: "gather"}, Params: params, InputSize: 1 + next()%12}
	width := func(stage int) int {
		if stage == ExternalStage {
			return p.InputSize
		}
		return p.Graph.Groups[p.Stages[stage].GroupID].Cols
	}
	// refs draws the refs of a reader that may read stages before before.
	refs := func(before int) []ExecRef {
		pattern := next() % 4
		if pattern == 0 {
			refs := make([]ExecRef, 1+next()%20)
			for r := range refs {
				ref := ExecRef{Stage: ZeroStage}
				switch k := next() % 4; {
				case k == 1 || before == 0 && k > 1:
					ref.Stage = ExternalStage
				case k > 1:
					ref.Stage = next() % before
				}
				if ref.Stage != ZeroStage {
					ref.Col = next() % width(ref.Stage)
				}
				refs[r] = ref
			}
			return refs
		}
		stage := next()%(before+1) - 1
		w, at, n := width(stage), 0, width(stage)
		switch {
		case pattern == 2 && w > 1:
			at = 1 + next()%(w-1)
		case pattern == 3:
			at = next() % w
			n = 1 + next()%(w-at)
		}
		refs := make([]ExecRef, n)
		for r := range refs {
			refs[r] = ExecRef{Stage: stage, Col: (at + r) % w}
		}
		return refs
	}
	for si, stages := 0, 1+next()%6; si < stages; si++ {
		st := ExecStage{GroupID: -1, InRefs: refs(si)}
		rows := len(st.InRefs)
		if share := next(); share%2 == 1 {
			for _, grp := range p.Graph.Groups {
				if grp.Rows == rows {
					st.GroupID = grp.ID
					break
				}
			}
		}
		if st.GroupID < 0 {
			cols := 1 + next()%12
			weights := make([][]int, rows)
			for i := range weights {
				weights[i] = make([]int, cols)
				for j := range weights[i] {
					weights[i][j] = rng.Intn(maxW+maxW/2+1) - maxW/2
				}
			}
			eta := float64(1 + rng.Intn(rows*maxW/2+1))
			grp := p.Graph.AddGroup(&coreop.Group{Name: fmt.Sprintf("g%d", si), Rows: rows, Cols: cols, Weights: weights, Eta: eta})
			st.GroupID = grp.ID
		}
		p.Stages = append(p.Stages, st)
	}
	p.OutputRefs = refs(len(p.Stages))
	return p
}

// refWalk is the fill's per-item oracle: it walks the ExecRefs into []int
// rows and runs each stage's crossbar on the one item (ReferenceBatch,
// B = 1).
func refWalk(ex *Executor, in []int) ([]int, error) {
	p := ex.prog
	vals := make([][]int, len(p.Stages))
	read := func(refs []ExecRef) []int {
		x := make([]int, len(refs))
		for r, ref := range refs {
			switch ref.Stage {
			case ZeroStage:
			case ExternalStage:
				x[r] = in[ref.Col]
			default:
				x[r] = vals[ref.Stage][ref.Col]
			}
		}
		return x
	}
	for si, st := range p.Stages {
		vals[si] = make([]int, p.Graph.Groups[st.GroupID].Cols)
		if err := ex.units[st.GroupID].ReferenceBatch(vals[si], read(st.InRefs), 1); err != nil {
			return nil, err
		}
	}
	return read(p.OutputRefs), nil
}

// FuzzGatherVsRefWalk: on hand-built programs (gatherProgram) in reference
// mode, RunBatch, RunFeatures' output counts and RunFeatures' classes at
// B = 3, 17 and 1 (grown, then shrunk scratch) equal refWalk item by item.
// The features are counts over Γ, which quantize back to the counts
// exactly. The seeds cover an alias of a non-adjacent stage, a full-width
// rotated run, an offset run, zero rows, and outputs that are not one run.
func FuzzGatherVsRefWalk(f *testing.F) {
	f.Add(int64(1), []byte{})
	// stage 0 reads the input whole, stage 1 rotates stage 0, stage 2
	// aliases stage 0 (non-adjacent); outputs drawn one by one.
	f.Add(int64(2), []byte{7, 2, 1, 0, 0, 5, 2, 1, 2, 0, 9, 1, 1, 0, 4, 0, 6, 0, 3, 2, 1, 2, 5, 3, 1, 1, 0, 1, 6})
	// a stage of zero rows and repeated input columns, a stage reading
	// its columns 0–2 of 6 (one run, not an alias); outputs an offset run
	// of the second stage (one run, read in place, not from column 0).
	f.Add(int64(3), []byte{5, 1, 0, 6, 0, 0, 1, 4, 1, 4, 2, 0, 3, 2, 2, 0, 0, 5, 3, 1, 0, 2, 0, 3, 3, 2, 2, 1})
	// five stages: the input whole, an alias of stage 0, two rotations of
	// stage 0 on stage 1's group, and a stage of drawn refs; outputs a
	// full-width rotation.
	f.Add(int64(4), []byte{11, 4, 1, 0, 1, 3, 1, 1, 1, 0, 2, 1, 3, 1, 0, 1, 2, 4, 1, 1, 3, 3, 1, 2, 1, 5, 1, 2, 4, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		prog := gatherProgram(data, rng)
		ex, err := NewExecutor(prog, RunOptions{Mode: ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		window := prog.Params.SamplingWindow()
		n := len(prog.OutputRefs)
		for _, B := range []int{3, 17, 1} {
			inputs := batchInputs(rng, B, prog.InputSize, window)
			features := make([][]float64, B)
			for b, in := range inputs {
				features[b] = make([]float64, len(in))
				for i, v := range in {
					features[b][i] = float64(v) / float64(window)
				}
			}
			got, err := ex.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			counts, classes := make([]int, B*n), make([]int, B)
			if err := ex.RunFeatures(counts, features, false); err != nil {
				t.Fatal(err)
			}
			if err := ex.RunFeatures(classes, features, true); err != nil {
				t.Fatal(err)
			}
			for b, in := range inputs {
				want, err := refWalk(ex, in)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[b], want) {
					t.Fatalf("B %d item %d: RunBatch %v, ref walk %v", B, b, got[b], want)
				}
				if row := counts[b*n : (b+1)*n]; !reflect.DeepEqual(row, want) {
					t.Fatalf("B %d item %d: RunFeatures counts %v, ref walk %v", B, b, row, want)
				}
				if classes[b] != Argmax(want) {
					t.Fatalf("B %d item %d: RunFeatures class %d, Argmax of ref walk %v", B, b, classes[b], want)
				}
			}
		}
	})
}
