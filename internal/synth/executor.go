package synth

import (
	"fmt"

	"fpsa/internal/device"
	"fpsa/internal/xbar"
)

// Executor is a reusable execution context over a Program: every weight
// group's crossbar is programmed exactly once, at construction, and reused
// across Run/RunBatch calls — the way the physical chip programs its
// crossbars once at deployment and then streams samples through them.
// Program.Run re-programs on every call; for a serving loop the Executor
// amortizes that away.
//
// Execution is batched end to end: RunBatch walks the stage list once per
// micro-batch, evaluating every batch item on a stage's crossbar before
// moving to the next stage (via the internal/xbar batch kernels), instead
// of re-walking all stages per item. Run is the batch-of-one special
// case.
//
// An Executor is NOT safe for concurrent use: the per-stage input and
// output tables are reused between runs, and in noisy mode the programmed
// variation is the executor's identity. Concurrent callers must hold one
// Executor per goroutine (see internal/serve), which also matches the
// hardware — each replica chip carries its own programming variation.
type Executor struct {
	prog  *Program
	opts  RunOptions
	units map[int]*xbar.Crossbar
	// stageCols[si] is the output width of stage si's weight group.
	stageCols []int
	// ins[si] is stage si's flat batch×rows input buffer; outs[si] its
	// flat batch×cols output, read by downstream refs. Both are grown on
	// demand and reused across runs.
	ins  [][]int
	outs [][]int
}

// NewExecutor programs every weight group of p under opts and returns the
// reusable execution state. In ModeSpikingNoisy the supplied Rng draws
// each cell's programming variation once, in stage order — the same draw
// order Program.Run uses, so a fresh Executor reproduces a single Run
// bit for bit. What construction costs is the programming itself: fault
// masks come from opts.Faults' memo (derived once per model, not per
// executor) and programming a weight allocates nothing, so the
// per-call executors Program.Run builds pay for their variation draws and
// little else.
func NewExecutor(p *Program, opts RunOptions) (*Executor, error) {
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
	cfg := xbar.Config{
		Params: p.Params,
		Spec:   spec,
		Rep:    device.NewAdd(spec, p.Params.CellsPerWeight),
		Path:   opts.Spike,
	}
	ex := &Executor{
		prog:      p,
		opts:      opts,
		units:     make(map[int]*xbar.Crossbar, len(p.Graph.Groups)),
		stageCols: make([]int, len(p.Stages)),
		ins:       make([][]int, len(p.Stages)),
		outs:      make([][]int, len(p.Stages)),
	}
	// Weight groups are shared across stages (conv positions): program
	// each group's crossbar once, in first-use stage order, exactly as
	// the chip holds one physical crossbar per group copy.
	for si, st := range p.Stages {
		grp := p.Graph.Groups[st.GroupID]
		ex.stageCols[si] = grp.Cols
		if _, ok := ex.units[st.GroupID]; ok {
			continue
		}
		c := cfg
		c.Eta = grp.Eta
		// The model derives a group's mask once and shares it read-only:
		// nil when inactive, keeping the unfaulted path untouched.
		c.Faults = opts.Faults.MaskForUnit(grp.Layer, st.GroupID, p.Params.CrossbarRows, p.Params.LogicalColumns(), grp.Rows, grp.Cols)
		u, err := xbar.Program(c, grp.Weights, opts.Rng)
		if err != nil {
			return nil, fmt.Errorf("synth: stage %d (%s): %w", si, grp.Name, err)
		}
		ex.units[st.GroupID] = u
	}
	return ex, nil
}

// Mode returns the execution mode the Executor was programmed for.
func (e *Executor) Mode() ExecMode { return e.opts.Mode }

// FaultedCells sums the stuck logical cells pinned across every crossbar
// the Executor programmed — the residual faults execution actually sees
// after any remapping.
func (e *Executor) FaultedCells() int {
	n := 0
	for _, u := range e.units { //fpsa:nondet summing int counters; order-free
		n += u.FaultedCells()
	}
	return n
}

// KernelStats sums the spiking-kernel selection counters over every
// crossbar the Executor programmed: how many micro-batch kernel calls took
// the packed sparse path versus the dense path, and the aggregate observed
// input spike density.
func (e *Executor) KernelStats() xbar.KernelStats {
	var st xbar.KernelStats
	for _, u := range e.units { //fpsa:nondet summing uint64 counters; order-free
		st = st.Add(u.KernelStats())
	}
	return st
}

// Validate checks one input vector's length and window range without
// executing anything — the pre-flight the serving engine runs so one bad
// request cannot fail a whole micro-batch.
func (e *Executor) Validate(input []int) error { return e.prog.Validate(input) }

// Run executes the program on one input vector of spike counts in [0, Γ]
// and returns the output counts at the network's output refs. The
// returned slice is freshly allocated; per-stage buffers are reused
// across runs. Run is RunBatch with a batch of one.
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
// independent Run calls in every execution mode.
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

// runBatch is the validated batch execution path.
func (e *Executor) runBatch(inputs [][]int) ([][]int, error) {
	p := e.prog
	B := len(inputs)
	if B == 0 {
		return nil, nil
	}
	for si, st := range p.Stages {
		n := len(st.InRefs)
		x := growInts(e.ins[si], B*n)
		e.ins[si] = x
		for b, in := range inputs {
			row := x[b*n : (b+1)*n]
			for r, ref := range st.InRefs {
				switch {
				case ref.Stage == ExternalStage:
					row[r] = in[ref.Col]
				case ref.Stage == ZeroStage:
					row[r] = 0
				case ref.Stage >= 0 && ref.Stage < si:
					row[r] = e.outs[ref.Stage][b*e.stageCols[ref.Stage]+ref.Col]
				default:
					return nil, fmt.Errorf("synth: stage %d row %d references stage %d", si, r, ref.Stage)
				}
			}
		}
		out := growInts(e.outs[si], B*e.stageCols[si])
		e.outs[si] = out
		unit := e.units[st.GroupID]
		var err error
		switch e.opts.Mode {
		case ModeReference:
			err = unit.ReferenceBatch(out, x, B)
		case ModeSpiking, ModeSpikingNoisy:
			err = unit.SimulateCountsBatch(out, x, B)
		default:
			err = fmt.Errorf("unknown exec mode %d", e.opts.Mode)
		}
		if err != nil {
			return nil, fmt.Errorf("synth: stage %d (%s): %w", si, p.Graph.Groups[st.GroupID].Name, err)
		}
	}
	return gatherOutputs(p, inputs, e.outs, e.stageCols), nil
}

// gatherOutputs reads the program's output refs out of the per-stage
// output tables into one result slice per batch item. The slices are
// capacity-capped views into a single flat backing array, so a batch costs
// two allocations however large it is, and appending to one result cannot
// reach its neighbour.
func gatherOutputs(p *Program, inputs, outs [][]int, stageCols []int) [][]int {
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
			res[i] = outs[ref.Stage][b*stageCols[ref.Stage]+ref.Col]
		}
		results[b] = res
	}
	return results
}
