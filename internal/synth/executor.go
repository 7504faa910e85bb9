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
// time, since the per-stage scratch is the executor's own. Concurrent
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
	// stages[si] is stage si's output width and gather plan, and outRuns
	// the OutputRefs compiled into gather runs as a stage's InRefs are:
	// fixed at construction and only read afterwards.
	stages  []stagePlan
	outRuns []gatherRun

	// mu is held across a batch's quantization, stage walk and output
	// gather: the scratch below is reused across runs.
	mu sync.Mutex
	// The tables hold counts in [0, Γ], as uint16 (Γ ≤ xbar.MaxWindow). in
	// is the batch's flat batch×InputSize input counts: RunFeatures
	// quantizes into it and RunBatch copies its rows in. ins[si] and
	// outs[si] are stage si's flat batch×rows input and batch×cols output.
	// A stage whose plan is an alias reads its source's table (in or an
	// earlier outs) in place and never grows its ins. Each of these tables
	// ends in one slack element past its batch's counts, which the kernels
	// take with their input (xbar.Crossbar.Reference). res holds the output
	// rows argmaxes gathers when the outputs are not one run. All grow on
	// demand.
	in, res   []uint16
	ins, outs [][]uint16
}

// stagePlan is what runStages needs to know about one stage besides its
// crossbar: the width of its output and how to gather its input row.
type stagePlan struct {
	cols int
	// runs cover the stage's InRefs in order, each the longest stretch of
	// consecutive columns read from one source.
	runs []gatherRun
	// alias is set when runs is one run over all of one source's columns,
	// in order — the external input for every MLP's first stage, the
	// previous stage's output for every later one: the stage then reads
	// that table in place, not a copy.
	alias bool
}

// gatherRun fills row[at : at+n] of a stage's input (or of a row of
// outputs) with columns [col, col+n) of one source, w columns wide: the
// external input (stage ExternalStage), an earlier stage's output, or
// zeros (ZeroStage, col and w unused).
type gatherRun struct {
	stage, col, at, n, w int
}

// extends reports whether ref continues a run whose last ref is prev.
func extends(prev, ref ExecRef) bool {
	return ref.Stage == prev.Stage && (ref.Stage == ZeroStage || ref.Col == prev.Col+1)
}

// planStages records every stage's output width and compiles its InRefs,
// and then the OutputRefs, into maximal gather runs, all in one backing
// array (sized for the worst case, a run per ref). A ref to a stage at or
// after its reader, or to a column its source does not have, is an error
// here rather than in the middle of a batch.
func planStages(p *Program) ([]stagePlan, []gatherRun, error) {
	stages := make([]stagePlan, len(p.Stages))
	refs := len(p.OutputRefs)
	for si, st := range p.Stages {
		stages[si].cols = p.Graph.Groups[st.GroupID].Cols
		refs += len(st.InRefs)
	}
	runs := make([]gatherRun, 0, refs)
	// compile appends refs' runs, reading stages before the given one, and
	// returns them, or the index of the first ref it cannot satisfy.
	compile := func(refs []ExecRef, before int) ([]gatherRun, int) {
		lo := len(runs)
		for r, ref := range refs {
			w := 0
			switch {
			case ref.Stage == ZeroStage:
			case ref.Stage == ExternalStage:
				w = p.InputSize
			case ref.Stage >= 0 && ref.Stage < before:
				w = stages[ref.Stage].cols
			default:
				return nil, r
			}
			if ref.Stage != ZeroStage && (ref.Col < 0 || ref.Col >= w) {
				return nil, r
			}
			if r > 0 && extends(refs[r-1], ref) {
				runs[len(runs)-1].n++
				continue
			}
			runs = append(runs, gatherRun{stage: ref.Stage, col: ref.Col, at: r, n: 1, w: w})
		}
		return runs[lo:len(runs):len(runs)], -1
	}
	for si, st := range p.Stages {
		sp := &stages[si]
		var bad int
		if sp.runs, bad = compile(st.InRefs, si); bad >= 0 {
			ref := st.InRefs[bad]
			return nil, nil, fmt.Errorf("synth: stage %d row %d references stage %d column %d", si, bad, ref.Stage, ref.Col)
		}
		if len(sp.runs) == 1 {
			r := sp.runs[0]
			sp.alias = r.stage != ZeroStage && r.col == 0 && r.n == r.w
		}
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
	stages, outRuns, err := planStages(p)
	if err != nil {
		return nil, err
	}
	cfg := xbar.Config{
		Params: p.Params,
		Spec:   spec,
		Rep:    device.NewAdd(spec, p.Params.CellsPerWeight),
	}
	e := &Executor{
		prog:    p,
		opts:    opts,
		kernel:  (*xbar.Crossbar).Simulate,
		chips:   len(bounds) - 1,
		units:   make([]*xbar.Crossbar, len(p.Graph.Groups)),
		order:   make([]int, 0, len(p.Graph.Groups)),
		stages:  stages,
		outRuns: outRuns,
		ins:     make([][]uint16, n),
		outs:    make([][]uint16, n),
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
		e.outputs(dst, len(features))
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
// input slab, the stage walk and the output gather, under the lock that
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
	e.outputs(flat, len(inputs))
	results := make([][]int, len(inputs))
	for b := range results {
		results[b] = flat[b*n : (b+1)*n : (b+1)*n]
	}
	return results, nil
}

// runStages evaluates the batch of B rows in the input slab over every
// stage in order — the one stage walk every chip count shares — reusing
// whatever capacity the per-stage tables already have. Every stage's
// input, x, is its B rows and the slack element after them.
func (e *Executor) runStages(B int) error {
	p := e.prog
	for si, st := range p.Stages {
		n := len(st.InRefs)
		sp := &e.stages[si]
		var x []uint16
		if sp.alias {
			x = e.table(sp.runs[0].stage)[:B*n+1]
		} else {
			x = grow(e.ins[si], B*n+1)
			e.ins[si] = x
			e.gather(x, n, sp.runs, B)
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

// table is a gather source's flat batch table: the input slab for
// ExternalStage, otherwise that stage's output.
func (e *Executor) table(stage int) []uint16 {
	if stage == ExternalStage {
		return e.in
	}
	return e.outs[stage]
}

// gather fills x, B flat rows n wide, one run at a time: each run is
// copied for every item before the next, so what it reads is decided once
// per run and batch rather than once per element. (A gather of its own
// keeps the hot loops' registers apart from runStages'.)
func (e *Executor) gather(x []uint16, n int, runs []gatherRun, B int) {
	for _, g := range runs {
		if g.stage == ZeroStage {
			for b := 0; b < B; b++ {
				clear(x[b*n+g.at : b*n+g.at+g.n])
			}
			continue
		}
		copyStrided(x, n, g.at, e.table(g.stage), g.w, g.col, g.n, B)
	}
}

// copyStrided copies columns [col, col+cnt) of each of the batch's rows of
// src (w wide) to columns [at, at+cnt) of the same row of dst (n wide). A
// one-column run — a convolution reading an earlier layer's per-position
// stages channel by channel — is a plain strided loop.
func copyStrided(dst []uint16, n, at int, src []uint16, w, col, cnt, batch int) {
	if cnt == 1 {
		for b := 0; b < batch; b++ {
			dst[b*n+at] = src[b*w+col]
		}
		return
	}
	for b := 0; b < batch; b++ {
		copyRun(dst[b*n+at:b*n+at+cnt], src[b*w+col:b*w+col+cnt])
	}
}

// shortRun is the longest run copied element by element: an im2col run is
// a kernel width long (3), where a loop beats a call into memmove.
const shortRun = 4

// copyRun copies src into dst, which has its length.
func copyRun(dst, src []uint16) {
	if len(dst) > shortRun {
		copy(dst, src)
		return
	}
	for k := range dst {
		dst[k] = src[k]
	}
}

// outputs writes the batch's B rows of output counts into dst,
// len(OutputRefs) per row, after runStages: gather's runs, each count
// widened to an int.
func (e *Executor) outputs(dst []int, B int) {
	n := len(e.prog.OutputRefs)
	for _, g := range e.outRuns {
		for b := 0; b < B; b++ {
			row := dst[b*n+g.at : b*n+g.at+g.n]
			if g.stage == ZeroStage {
				clear(row)
				continue
			}
			for k, v := range e.table(g.stage)[b*g.w+g.col:][:g.n] {
				row[k] = int(v)
			}
		}
	}
}

// argmaxes writes every row's argmax class into dst, one row per slot,
// ties to the first maximum as Argmax, after runStages. Outputs that are
// one run — every network whose last layer is its output — are read in
// place from their source's table; others are gathered into res first.
func (e *Executor) argmaxes(dst []int) {
	n := len(e.prog.OutputRefs)
	var tab []uint16
	w, col := n, 0
	if g := e.outRuns; len(g) == 1 && g[0].stage != ZeroStage {
		tab, w, col = e.table(g[0].stage), g[0].w, g[0].col
	} else {
		e.res = grow(e.res, len(dst)*n)
		tab = e.res
		e.gather(tab, n, e.outRuns, len(dst))
	}
	for b := range dst {
		dst[b] = argmax(tab[b*w+col : b*w+col+n])
	}
}
