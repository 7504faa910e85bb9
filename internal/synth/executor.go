package synth

import (
	"fmt"
	"sync"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/xbar"
)

// Executor is a reusable execution context over a Program on one or more
// simulated chips: every weight group's crossbar is programmed exactly
// once, at construction, and reused across Run/RunBatch calls — the way
// the physical chips program their crossbars once at deployment and then
// stream samples through them. Program.Run re-programs on every call; for
// a serving loop the Executor amortizes that away.
//
// Execution is batched end to end: RunBatch walks the stage list once per
// micro-batch, evaluating every batch item on a stage's crossbar before
// moving to the next stage (via the internal/xbar batch kernels), instead
// of re-walking all stages per item. Run is the batch-of-one special
// case.
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
// RunBatch is safe for concurrent use: calls on one Executor run one at a
// time, since the per-stage scratch is the executor's own. Concurrent
// callers that want to run in parallel hold one Executor each (see
// internal/serve), which also matches the hardware — each replica carries
// its own programming variation. A panic under the kernel reaches the
// caller and leaves the Executor usable. Close is a no-op and RunBatch
// keeps working after it.
type Executor struct {
	prog *Program
	opts RunOptions
	// kernel runs one spiking stage: (*xbar.Crossbar).SimulateCountsBatch on
	// every executor built outside this package's tests (see
	// RunOptions.spikeKernel).
	kernel func(c *xbar.Crossbar, dst, src []int, batch int) error
	// chips is how many chips the plan spread the stages over.
	chips int
	// units[gid] is weight group gid's programmed crossbar; nil for a group
	// no stage uses.
	units []*xbar.Crossbar
	// stages[si] is stage si's output width and gather plan, fixed at
	// construction and only read afterwards.
	stages []stagePlan

	// mu is held across a batch's stage walk and output gather: ins and
	// outs are reused across runs.
	mu sync.Mutex
	// ins[si] and outs[si] are stage si's flat batch×rows input and
	// batch×cols output, grown on demand.
	ins, outs [][]int
}

// stagePlan is what runStages needs to know about one stage besides its
// crossbar: the width of its output and how to gather its input row.
type stagePlan struct {
	cols int
	// runs cover the stage's InRefs in order, each the longest stretch of
	// consecutive columns read from one source.
	runs []gatherRun
}

// gatherRun fills row[at : at+n] of a stage's input with columns
// [col, col+n) of one source: the external input (stage ExternalStage), an
// earlier stage's output, or zeros (ZeroStage, col unused).
type gatherRun struct {
	stage, col, at, n int
}

// extends reports whether ref continues a run whose last ref is prev.
func extends(prev, ref ExecRef) bool {
	return ref.Stage == prev.Stage && (ref.Stage == ZeroStage || ref.Col == prev.Col+1)
}

// planStages records every stage's output width and compiles its InRefs
// into maximal gather runs, all in one backing array (sized for the worst
// case, a run per ref). A ref to a stage at or after its reader, or to a
// column its source does not have, is an error here rather than in the
// middle of a batch.
func planStages(p *Program) ([]stagePlan, error) {
	stages := make([]stagePlan, len(p.Stages))
	refs := 0
	for si, st := range p.Stages {
		stages[si].cols = p.Graph.Groups[st.GroupID].Cols
		refs += len(st.InRefs)
	}
	runs := make([]gatherRun, 0, refs)
	for si, st := range p.Stages {
		lo := len(runs)
		for r, ref := range st.InRefs {
			switch {
			case ref.Stage == ZeroStage:
			case ref.Stage == ExternalStage && ref.Col >= 0 && ref.Col < p.InputSize:
			case ref.Stage >= 0 && ref.Stage < si && ref.Col >= 0 && ref.Col < stages[ref.Stage].cols:
			default:
				return nil, fmt.Errorf("synth: stage %d row %d references stage %d column %d", si, r, ref.Stage, ref.Col)
			}
			if r > 0 && extends(st.InRefs[r-1], ref) {
				runs[len(runs)-1].n++
				continue
			}
			runs = append(runs, gatherRun{stage: ref.Stage, col: ref.Col, at: r, n: 1})
		}
		stages[si].runs = runs[lo:len(runs):len(runs)]
	}
	return stages, nil
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
// cell's programming variation in that order — the same draw order
// Program.Run uses — so a fresh Executor reproduces a single Run bit for
// bit, and a sharded deployment carries identically noisy conductances to
// the single-chip deployment it replaces. What construction costs is the
// programming itself: fault masks come from opts.Faults' memo (derived
// once per model, not per executor, and keyed on the global group ID, so
// a group lands on the same stuck cells whichever chip owns it) and
// programming a weight allocates nothing, so the per-call executors
// Program.Run builds pay for their variation draws and little else.
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
	stages, err := planStages(p)
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
		kernel: (*xbar.Crossbar).SimulateCountsBatch,
		chips:  len(bounds) - 1,
		units:  make([]*xbar.Crossbar, len(p.Graph.Groups)),
		stages: stages,
		ins:    make([][]int, n),
		outs:   make([][]int, n),
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
		c.Faults = opts.Faults.MaskForUnit(grp.Layer, st.GroupID, p.Params.CrossbarRows, p.Params.LogicalColumns(), grp.Rows, grp.Cols)
		u, err := xbar.Program(c, grp.Weights, opts.Rng)
		if err != nil {
			return nil, fmt.Errorf("synth: stage %d (%s): %w", si, grp.Name, err)
		}
		e.units[st.GroupID] = u
	}
	return e, nil
}

// Chips returns the number of chips the program is spread over.
func (e *Executor) Chips() int { return e.chips }

// Close is a no-op: an Executor holds no goroutine or other resource to
// release, and RunBatch keeps working after it.
func (e *Executor) Close() error { return nil }

// Mode returns the execution mode the Executor was programmed for.
func (e *Executor) Mode() ExecMode { return e.opts.Mode }

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

// Validate checks one input vector's length and window range without
// executing anything.
func (e *Executor) Validate(input []int) error { return e.prog.Validate(input) }

// Run executes the program on one input vector of spike counts in [0, Γ]
// and returns the output counts at the network's output refs. The
// returned slice is freshly allocated. Run is RunBatch with a batch of
// one.
func (e *Executor) Run(input []int) ([]int, error) {
	if err := e.Validate(input); err != nil {
		return nil, err
	}
	outs, err := e.runBatch([][]int{input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunBatch executes the program on a micro-batch of input vectors and
// returns one output-count slice per input, positionally; the slices are
// freshly allocated views into one backing array (see gatherOutputs).
// The whole batch advances through the stage list together: each stage's
// crossbar evaluates every item (one batched kernel call) before the next
// stage runs, so a weight group's programmed state is touched once per
// batch rather than once per item. Outputs are bit-identical to len(inputs)
// independent Run calls in every execution mode and at every chip count.
func (e *Executor) RunBatch(inputs [][]int) ([][]int, error) {
	if err := e.prog.ValidateBatch(inputs); err != nil {
		return nil, err
	}
	return e.runBatch(inputs)
}

// growInts returns buf resized to n, reusing capacity.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// runBatch is the validated batch execution path: the stage walk and the
// output gather, under the lock that keeps the scratch one caller's. The
// deferred unlock also runs when the kernel panics.
func (e *Executor) runBatch(inputs [][]int) ([][]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.runStages(inputs); err != nil {
		return nil, err
	}
	return gatherOutputs(e.prog, inputs, e.outs, e.stages), nil
}

// runStages evaluates a batch over every stage in order — the one stage
// walk every chip count shares — reusing whatever capacity the per-stage
// tables already have.
func (e *Executor) runStages(inputs [][]int) error {
	p := e.prog
	B := len(inputs)
	for si, st := range p.Stages {
		n := len(st.InRefs)
		x := growInts(e.ins[si], B*n)
		e.ins[si] = x
		e.gather(x, n, e.stages[si].runs, inputs, e.outs)
		out := growInts(e.outs[si], B*e.stages[si].cols)
		e.outs[si] = out
		unit := e.units[st.GroupID]
		var err error
		switch e.opts.Mode {
		case ModeReference:
			err = unit.ReferenceBatch(out, x, B)
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

// gather fills x, a stage's flat batch×n input rows, one run at a time:
// each run is copied for every item before the next, so what it reads is
// decided once per run and batch rather than once per element. (A gather
// of its own keeps the hot loops' registers apart from runStages'.)
func (e *Executor) gather(x []int, n int, runs []gatherRun, inputs, outs [][]int) {
	for _, g := range runs {
		switch g.stage {
		case ExternalStage:
			for b, in := range inputs {
				copyRun(x[b*n+g.at:b*n+g.at+g.n], in[g.col:g.col+g.n])
			}
		case ZeroStage:
			for b := range inputs {
				clear(x[b*n+g.at : b*n+g.at+g.n])
			}
		default:
			copyStrided(x, n, g.at, outs[g.stage], e.stages[g.stage].cols, g.col, g.n, len(inputs))
		}
	}
}

// copyStrided copies columns [col, col+cnt) of each of the batch's rows of
// src (w wide) to columns [at, at+cnt) of the same row of dst (n wide). A
// one-column run — a convolution reading an earlier layer's per-position
// stages channel by channel — is a plain strided loop.
func copyStrided(dst []int, n, at int, src []int, w, col, cnt, batch int) {
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
func copyRun(dst, src []int) {
	if len(dst) > shortRun {
		copy(dst, src)
		return
	}
	for k := range dst {
		dst[k] = src[k]
	}
}

// gatherOutputs reads the program's output refs out of the per-stage
// output tables into one result slice per batch item. The slices are
// capacity-capped views into a single flat backing array, so a batch costs
// two allocations however large it is, and appending to one result cannot
// reach its neighbour.
func gatherOutputs(p *Program, inputs, outs [][]int, stages []stagePlan) [][]int {
	n := len(p.OutputRefs)
	flat := make([]int, len(inputs)*n)
	results := make([][]int, len(inputs))
	for b := range results {
		res := flat[b*n : (b+1)*n : (b+1)*n]
		for i, ref := range p.OutputRefs {
			if ref.Stage == ExternalStage {
				res[i] = inputs[b][ref.Col]
				continue
			}
			res[i] = outs[ref.Stage][b*stages[ref.Stage].cols+ref.Col]
		}
		results[b] = res
	}
	return results
}
