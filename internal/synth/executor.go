package synth

import (
	"fmt"
	"sync"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/xbar"
)

// Executor is a reusable execution context over a Program on one or more
// simulated chips: every weight group's crossbar is programmed once, at
// construction, and reused across calls — the way the physical chips
// program their crossbars once at deployment and then stream samples
// through them. A Monte-Carlo loop that wants a fresh chip per call
// redraws one executor's conductances in place (Redraw).
//
// Execution is batched end to end: RunFeatures walks the stage list once
// per micro-batch, evaluating every batch item on a stage's crossbar
// before moving to the next stage (via the internal/xbar batch kernels),
// instead of re-walking all stages per item. A single sample is a batch
// of one.
//
// A plan from PartitionStages gives each chip a contiguous stage range and
// the crossbars of the groups those stages use. A batch walks the stages
// in order on the caller's goroutine, chip after chip: the hardware's
// chip-to-chip pipelining is modelled by internal/perf's link terms, not
// by host threads, so the chip count changes neither how a batch runs nor
// who may call. Programming and the stage walk are the same code at every
// chip count, so outputs are bit-identical across chip counts in all three
// modes.
//
// A call is safe for concurrent use: calls on one Executor run one at a
// time, since the tables and scratch are the executor's own. Concurrent
// callers that want to run in parallel hold one Executor each (see
// internal/serve), which also matches the hardware — each replica carries
// its own programming variation. A panic under the kernel reaches the
// caller and leaves the Executor usable. Close is a no-op and the
// Executor keeps working after it.
type Executor struct {
	prog *Program
	opts RunOptions
	// kernel runs one spiking stage: (*xbar.Crossbar).Simulate on every
	// executor built outside this package's tests (see
	// RunOptions.spikeKernel).
	kernel func(c *xbar.Crossbar, dst, src []uint16, batch int) error
	// chips is how many chips the plan spread the stages over.
	chips int
	// units[gid] is weight group gid's programmed crossbar; nil for a group
	// no stage uses. order lists the used groups in global first-use stage
	// order, the order they are programmed and redrawn in.
	units []*xbar.Crossbar
	order []int
	// stages[si] is stage si's output width and input sources, out the
	// OutputRefs' sources, and outRun whether those are one run: fixed at
	// construction and only read afterwards.
	stages []stagePlan
	out    []source
	outRun bool

	// mu is held across a batch's quantization, stage walk and output
	// fill: the scratch below is reused across runs.
	mu sync.Mutex
	// The tables hold counts in [0, Γ], as uint16 (Γ ≤ xbar.MaxWindow). in
	// is the batch's flat batch×InputSize input counts: RunFeatures
	// quantizes into it and RunBatch copies its rows in. outs[si] is stage
	// si's flat batch×cols output. x is the one scratch every stage that
	// does not alias fills its batch×rows input into, and argmaxes its
	// output rows when they are not one run: stages run one after another
	// and each kernel consumes its input before the next fill. Every kernel
	// input ends in one slack element past its batch's counts, whose value
	// the kernels never use (xbar.Crossbar.Reference). All grow on demand.
	in, x []uint16
	outs  [][]uint16
}

// stagePlan is what runStages needs to know about one stage besides its
// crossbar: the width of its output and where each input row comes from.
type stagePlan struct {
	cols int
	src  []source
	// alias is set when src is all of one table's columns in order — the
	// external input for every MLP's first stage, the previous stage's
	// output for every later one: the stage then reads that table in
	// place, not a copy.
	alias bool
}

// source is the producer of one stage input row (or one output): column
// col of a table w columns wide — the input slab (stage ExternalStage), an
// earlier stage's output, or the one-element zero slot (ZeroStage, col and
// w 0), so that row b of any table is read at b·w + col.
type source struct {
	stage, col, w int32
}

// zeroSlot is the table a ZeroStage source reads: one zero, at width 0.
var zeroSlot = []uint16{0}

// oneRun reports whether src reads consecutive columns of one table, not
// the zero slot.
func oneRun(src []source) bool {
	for r, s := range src {
		if s.stage == ZeroStage || s.stage != src[0].stage || s.col != src[0].col+int32(r) {
			return false
		}
	}
	return len(src) > 0
}

// planStages records every stage's output width and compiles its InRefs,
// and then the OutputRefs, into source lists, one source per row, all in
// one backing array. A ref to a stage at or after its reader, or to a
// column its source does not have, is an error here rather than in the
// middle of a batch.
func planStages(p *Program) ([]stagePlan, []source, error) {
	stages := make([]stagePlan, len(p.Stages))
	refs := len(p.OutputRefs)
	for si, st := range p.Stages {
		stages[si].cols = p.Graph.Groups[st.GroupID].Cols
		refs += len(st.InRefs)
	}
	all := make([]source, refs)
	// compile turns refs into the next len(refs) sources, reading stages
	// before the given one, or returns the index of the first ref it
	// cannot satisfy.
	compile := func(refs []ExecRef, before int) ([]source, int) {
		src := all[:len(refs):len(refs)]
		all = all[len(refs):]
		for r, ref := range refs {
			w := 0
			switch {
			case ref.Stage == ZeroStage:
				src[r] = source{stage: ZeroStage}
				continue
			case ref.Stage == ExternalStage:
				w = p.InputSize
			case ref.Stage >= 0 && ref.Stage < before:
				w = stages[ref.Stage].cols
			default:
				return nil, r
			}
			if ref.Col < 0 || ref.Col >= w {
				return nil, r
			}
			src[r] = source{stage: int32(ref.Stage), col: int32(ref.Col), w: int32(w)}
		}
		return src, -1
	}
	for si, st := range p.Stages {
		sp := &stages[si]
		var bad int
		if sp.src, bad = compile(st.InRefs, si); bad >= 0 {
			ref := st.InRefs[bad]
			return nil, nil, fmt.Errorf("synth: stage %d row %d references stage %d column %d", si, bad, ref.Stage, ref.Col)
		}
		// A run as wide as its table starts at column 0.
		sp.alias = oneRun(sp.src) && len(sp.src) == int(sp.src[0].w)
	}
	out, bad := compile(p.OutputRefs, len(stages))
	if bad >= 0 {
		ref := p.OutputRefs[bad]
		return nil, nil, fmt.Errorf("synth: output %d references stage %d column %d", bad, ref.Stage, ref.Col)
	}
	return stages, out, nil
}

// NewExecutor programs every weight group of p under opts onto a single
// chip and returns the reusable execution state.
func NewExecutor(p *Program, opts RunOptions) (*Executor, error) {
	return NewPipelineExecutor(p, nil, opts)
}

// NewPipelineExecutor programs p's weight groups under opts and
// distributes them over the plan's chips. A nil plan is a single chip. The
// plan must come from p.PartitionStages: segment boundaries may not split
// a shared weight group — a physical crossbar lives on exactly one die.
//
// Every group is programmed once, in global first-use stage order,
// whatever the plan. In ModeSpikingNoisy the supplied Rng draws each
// cell's programming variation in that order, so two executors built from
// identically seeded streams carry identical conductances, and a sharded
// deployment carries identically noisy conductances to the single-chip
// deployment it replaces. Fault masks come from
// opts.Faults' memo (derived once per model, not per executor, and keyed
// on the global group ID, so a group lands on the same stuck cells
// whichever chip owns it) and programming a weight allocates nothing. A
// caller that wants a fresh variation draw per call keeps one executor and
// calls Redraw, which costs the draws alone; construction adds every
// buffer to that.
func NewPipelineExecutor(p *Program, plan *shard.Plan, opts RunOptions) (*Executor, error) {
	n := len(p.Stages)
	bounds := []int{0, n}
	if plan != nil {
		bounds = plan.Bounds
		if first, last := bounds[0], bounds[len(bounds)-1]; first != 0 || last != n {
			return nil, fmt.Errorf("synth: plan covers stages %d to %d, program has %d", first, last, n)
		}
	}
	spec := opts.Spec
	if spec.Bits == 0 {
		spec = device.Cell4Bit
	}
	if opts.Mode != ModeSpikingNoisy {
		spec.Sigma = 0
	} else if opts.Rng == nil {
		return nil, fmt.Errorf("synth: ModeSpikingNoisy requires RunOptions.Rng")
	}
	opts.Spec = spec
	stages, out, err := planStages(p)
	if err != nil {
		return nil, err
	}
	cfg := xbar.Config{
		Params: p.Params,
		Spec:   spec,
		Rep:    device.NewAdd(spec, p.Params.CellsPerWeight),
	}
	e := &Executor{
		prog:   p,
		opts:   opts,
		kernel: (*xbar.Crossbar).Simulate,
		chips:  len(bounds) - 1,
		units:  make([]*xbar.Crossbar, len(p.Graph.Groups)),
		order:  make([]int, 0, len(p.Graph.Groups)),
		stages: stages,
		out:    out,
		outRun: oneRun(out),
		outs:   make([][]uint16, n),
	}
	if opts.spikeKernel != nil {
		e.kernel = opts.spikeKernel
	}
	// Weight groups are shared across stages (conv positions): program
	// each group's crossbar once, at its first use, on the chip whose
	// range holds that stage — exactly as the chip holds one physical
	// crossbar per group copy — and reject a plan that puts a later use
	// on another chip.
	chipOf := make([]int, len(p.Graph.Groups))
	k := 0
	for si, st := range p.Stages {
		for si >= bounds[k+1] {
			k++
		}
		grp := p.Graph.Groups[st.GroupID]
		if e.units[st.GroupID] != nil {
			if chipOf[st.GroupID] != k {
				return nil, fmt.Errorf("synth: plan splits weight group %q across chips (stage %d)", grp.Name, si)
			}
			continue
		}
		chipOf[st.GroupID] = k
		c := cfg
		c.Eta = grp.Eta
		// The model derives a group's mask once and shares it read-only:
		// nil when inactive, keeping the unfaulted path untouched.
		c.Faults = opts.Faults.MaskForUnit(st.GroupID, p.Params.CrossbarRows, p.Params.LogicalColumns(), grp.Rows, grp.Cols)
		u, err := xbar.Program(c, grp.Weights, opts.Rng)
		if err != nil {
			return nil, fmt.Errorf("synth: stage %d (%s): %w", si, grp.Name, err)
		}
		e.units[st.GroupID] = u
		e.order = append(e.order, st.GroupID)
	}
	return e, nil
}

// Redraw re-programs every crossbar in place with a fresh programming-
// variation draw: it reseeds the executor's own Rng with seed and redraws
// each group in global first-use order, the order construction programs
// them in, so afterwards the executor is bit-identical — outputs, chips
// and all — to a new one built on the same plan with RunOptions.Rng =
// rand.New(rand.NewSource(seed)) (*rand.Rand's Seed restarts exactly that
// stream). It reuses every buffer (xbar.Crossbar.Redraw). Outside
// ModeSpikingNoisy the conductances are ideal and there is nothing to draw:
// Redraw does nothing.
func (e *Executor) Redraw(seed int64) {
	if e.opts.Mode != ModeSpikingNoisy {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts.Rng.Seed(seed)
	for _, gid := range e.order {
		e.units[gid].Redraw(e.opts.Rng)
	}
}

// Chips returns the number of chips the program is spread over.
func (e *Executor) Chips() int { return e.chips }

// Close is a no-op: an Executor holds no goroutine or other resource to
// release, and it keeps working after it.
func (e *Executor) Close() error { return nil }

// FaultedCells sums the stuck logical cells pinned across every crossbar
// the Executor programmed — the residual faults execution actually sees
// after any remapping, and the same count at every chip count.
func (e *Executor) FaultedCells() int {
	n := 0
	for _, u := range e.units {
		if u != nil {
			n += u.FaultedCells()
		}
	}
	return n
}

// KernelStats sums the spiking-kernel counters over every crossbar the
// Executor programmed: how many micro-batch kernel calls ran and the
// aggregate observed input spike density (DenseBatches stays 0 unless a
// test swapped the oracle in). The counters are atomics, so reading them
// while a batch runs on another goroutine is safe (each count lands before
// the batch's results are delivered).
func (e *Executor) KernelStats() xbar.KernelStats {
	var st xbar.KernelStats
	for _, u := range e.units {
		if u != nil {
			st = st.Add(u.KernelStats())
		}
	}
	return st
}

// RunBatch executes the program on a micro-batch of input vectors of
// spike counts in [0, Γ] and returns one output-count slice per input,
// positionally; the slices are freshly allocated views into one backing
// array (see runBatch). The whole batch advances through the stage list
// together: each stage's crossbar evaluates every item (one batched kernel
// call) before the next stage runs. Outputs are bit-identical to
// len(inputs) one-row calls in every execution mode and at every chip
// count. Serving takes features (RunFeatures); RunBatch stays for bench/
// (ROADMAP item 1(f)) and as the tests' oracle.
func (e *Executor) RunBatch(inputs [][]int) ([][]int, error) {
	if err := e.prog.ValidateBatch(inputs); err != nil {
		return nil, err
	}
	return e.runBatch(inputs)
}

// RunFeatures is RunBatch for real-valued features, writing its results
// into dst instead of allocating them. It quantizes each row into the
// executor's input slab against the program's sampling window (as
// QuantizeInput does), runs the rows as RunBatch does, and reads the
// results out of the stage output tables: with classes set, dst[b]
// is row b's argmax class (ties to the first maximum, as Argmax); otherwise
// dst holds the rows' output counts back to back, len(OutputRefs) per row.
// dst must be exactly that long. Its one input check is each row's length
// (ErrInputLength): quantization puts every count in [0, Γ], so the rest
// of ValidateBatch could never fail here. Results and errors are those of
// RunBatch over each row's QuantizeInput(row, Γ) followed by Argmax, and a
// warm call allocates nothing.
func (e *Executor) RunFeatures(dst []int, features [][]float64, classes bool) error {
	want := len(features)
	if !classes {
		want *= len(e.prog.OutputRefs)
	}
	if len(dst) != want {
		return fmt.Errorf("synth: %d result slots for %d rows, want %d", len(dst), len(features), want)
	}
	for b, f := range features {
		if err := e.prog.checkLength(len(f)); err != nil {
			return fmt.Errorf("synth: batch item %d: %w", b, err)
		}
	}
	if len(features) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.quantize(features)
	if err := e.runStages(len(features)); err != nil {
		return err
	}
	if classes {
		e.argmaxes(dst)
	} else {
		fill(e, dst, e.out, len(features))
	}
	return nil
}

// quantize writes every feature row's counts into the executor's input
// slab, row after row, in one xbar.Quantize call. Under e.mu.
func (e *Executor) quantize(features [][]float64) {
	size := e.prog.InputSize // checkLength passed: every row is this long
	e.in = grow(e.in, len(features)*size+1)
	xbar.Quantize(e.in[:len(features)*size], features, e.prog.Params.SamplingWindow())
}

// grow returns buf resized to n, reusing capacity.
func grow(buf []uint16, n int) []uint16 {
	if cap(buf) < n {
		return make([]uint16, n)
	}
	return buf[:n]
}

// runBatch is the validated batch execution path: the rows' copy into the
// input slab, the stage walk and the output fill, under the lock that
// keeps the scratch one caller's. The results are capacity-capped views
// into one flat backing array, so a batch costs two allocations however
// large it is, and appending to one result cannot reach its neighbour.
// The deferred unlock also runs when the kernel panics.
func (e *Executor) runBatch(inputs [][]int) ([][]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	size := e.prog.InputSize
	e.in = grow(e.in, len(inputs)*size+1)
	for b, in := range inputs {
		row := e.in[b*size : (b+1)*size]
		for k, v := range in { // validated: in [0, Γ]
			row[k] = uint16(v)
		}
	}
	if err := e.runStages(len(inputs)); err != nil {
		return nil, err
	}
	n := len(e.prog.OutputRefs)
	flat := make([]int, len(inputs)*n)
	fill(e, flat, e.out, len(inputs))
	results := make([][]int, len(inputs))
	for b := range results {
		results[b] = flat[b*n : (b+1)*n : (b+1)*n]
	}
	return results, nil
}

// runStages evaluates the batch of B rows in the input slab over every
// stage in order — the one stage walk every chip count shares — reusing
// whatever capacity the tables already have. Every stage's input, x, is
// its B rows and the slack element after them.
func (e *Executor) runStages(B int) error {
	p := e.prog
	for si, st := range p.Stages {
		sp := &e.stages[si]
		n := len(sp.src)
		var x []uint16
		if sp.alias {
			x = e.table(sp.src[0].stage)[:B*n+1]
		} else {
			e.x = grow(e.x, B*n+1)
			x = e.x
			fill(e, x, sp.src, B)
		}
		out := grow(e.outs[si], B*sp.cols+1)
		e.outs[si] = out
		out = out[:B*sp.cols]
		unit := e.units[st.GroupID]
		var err error
		switch e.opts.Mode {
		case ModeReference:
			err = unit.Reference(out, x, B)
		case ModeSpiking, ModeSpikingNoisy:
			err = e.kernel(unit, out, x, B)
		default:
			err = fmt.Errorf("unknown exec mode %d", e.opts.Mode)
		}
		if err != nil {
			return fmt.Errorf("synth: stage %d (%s): %w", si, p.Graph.Groups[st.GroupID].Name, err)
		}
	}
	return nil
}

// table is a source's flat batch table: the input slab for ExternalStage,
// the zero slot for ZeroStage, otherwise that stage's output.
func (e *Executor) table(stage int32) []uint16 {
	switch stage {
	case ExternalStage:
		return e.in
	case ZeroStage:
		return zeroSlot
	}
	return e.outs[stage]
}

// fill writes B flat rows of len(src) counts into dst, row r of item b
// from src[r]'s table at b·w + col: one indexed loop, row by row and over
// the batch within each row, for a stage's input and for the output rows.
func fill[T int | uint16](e *Executor, dst []T, src []source, B int) {
	n := len(src)
	for r, s := range src {
		tab, w := e.table(s.stage)[s.col:], int(s.w)
		for b := 0; b < B; b++ {
			dst[b*n+r] = T(tab[b*w])
		}
	}
}

// argmaxes writes every row's argmax class into dst, one row per slot,
// ties to the first maximum as Argmax, after runStages. Outputs that are
// one run — every network whose last layer is its output — are read in
// place from their source's table; others are filled into x first.
func (e *Executor) argmaxes(dst []int) {
	n := len(e.out)
	var tab []uint16
	w, col := n, 0
	if e.outRun {
		s := e.out[0]
		tab, w, col = e.table(s.stage), int(s.w), int(s.col)
	} else {
		e.x = grow(e.x, len(dst)*n)
		tab = e.x
		fill(e, tab, e.out, len(dst))
	}
	for b := range dst {
		dst[b] = argmax(tab[b*w+col : b*w+col+n])
	}
}
