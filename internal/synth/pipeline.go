package synth

import (
	"fmt"
	"sync"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/xbar"
)

// ErrPipelineClosed is returned by PipelineExecutor methods after Close.
var ErrPipelineClosed = fmt.Errorf("synth: pipeline executor closed")

// PartitionStages cuts the program's stage list into up to maxChips
// per-chip segments using internal/shard: per-chip load is the number of
// distinct programmed crossbars (weight groups) the segment owns, cut
// traffic is the number of logical signals (stage-output columns and
// forwarded external inputs) crossing each boundary, and a weight group
// shared by several stages (convolution positions) pins all of them to
// one chip — a physical crossbar lives on exactly one die.
//
// maxChips is clamped to what the program supports: if no legal
// maxChips-way cut exists (fewer stages than chips, or shared groups pin
// too much together), the largest feasible chip count is used, down to a
// single chip. The plan is deterministic for a given program and policy.
func (p *Program) PartitionStages(maxChips int, policy shard.Policy) (*shard.Plan, error) {
	n := len(p.Stages)
	if n == 0 {
		return nil, fmt.Errorf("synth: program has no stages to partition")
	}
	if maxChips < 1 {
		maxChips = 1
	}
	if maxChips > n {
		maxChips = n
	}

	// Per-stage weight: 1 where a group's crossbar is first programmed,
	// 0 for later reuses of the same group.
	weights := make([]int, n)
	firstUse := make(map[int]int, len(p.Graph.Groups))
	lastUse := make(map[int]int, len(p.Graph.Groups))
	for si, st := range p.Stages {
		if _, ok := firstUse[st.GroupID]; !ok {
			firstUse[st.GroupID] = si
			weights[si] = 1
		}
		lastUse[st.GroupID] = si
	}

	// A cut between stages c-1 and c is illegal while any group spans it.
	illegal := make([]bool, n+1)
	for gid, first := range firstUse { //fpsa:nondet OR-accumulates a bool mask; order-free
		for c := first + 1; c <= lastUse[gid]; c++ {
			illegal[c] = true
		}
	}

	// Signals: each referenced (producer stage, column) is one signal
	// alive from its producer to its last consumer; external input
	// columns are produced off-chain (Prod = -1). Output refs stay live
	// to the final stage — the last chip emits the network's outputs.
	type src struct{ stage, col int }
	last := make(map[src]int)
	note := func(ref ExecRef, consumer int) {
		switch ref.Stage {
		case ZeroStage:
			return // constant zero is materialized locally, never shipped
		case ExternalStage:
			if prev, ok := last[src{-1, ref.Col}]; !ok || consumer > prev {
				last[src{-1, ref.Col}] = consumer
			}
		default:
			if prev, ok := last[src{ref.Stage, ref.Col}]; !ok || consumer > prev {
				last[src{ref.Stage, ref.Col}] = consumer
			}
		}
	}
	for si, st := range p.Stages {
		for _, ref := range st.InRefs {
			note(ref, si)
		}
	}
	for _, ref := range p.OutputRefs {
		note(ref, n-1)
	}
	// Coalesce per (producer, last consumer). Signal order is free to
	// vary (map iteration): the partitioner only ever sums widths per
	// cut, so the plan stays deterministic.
	width := make(map[[2]int]int, len(last))
	for s, l := range last { //fpsa:nondet counts into a map; order-free
		width[[2]int{s.stage, l}]++
	}
	signals := make([]shard.Signal, 0, len(width))
	for k, w := range width { //fpsa:nondet the partitioner only sums widths per cut
		signals = append(signals, shard.Signal{Prod: k[0], Last: k[1], Width: w})
	}

	// Degrade gracefully: the densest legal cut count wins.
	for chips := maxChips; ; chips-- {
		plan, err := shard.Partition(weights, signals, illegal, shard.Options{Chips: chips, Policy: policy})
		if err == nil {
			return plan, nil
		}
		if chips == 1 {
			return nil, fmt.Errorf("synth: partition failed even at one chip: %w", err)
		}
	}
}

// pipeJob is one micro-batch in flight through the chip pipeline. outs is
// the per-stage output table (batch×cols flat, indexed by global stage);
// each chip fills its own stage range, so exactly one goroutine writes
// any entry and the channel hand-off orders the accesses.
type pipeJob struct {
	inputs  [][]int
	outs    [][]int
	results [][]int
	err     error
	done    chan struct{}
}

// pipeChip is one simulated chip of the pipeline: the contiguous stage
// range [lo, hi) and the crossbars programmed for the groups those stages
// own. Its goroutine consumes jobs in FIFO order, so the per-chip scratch
// input buffers and crossbar scratch are single-threaded even while
// different chips work on different jobs concurrently.
type pipeChip struct {
	lo, hi int
	units  map[int]*xbar.Crossbar
	ins    [][]int // per-stage gather scratch, indexed by global stage
	in     chan *pipeJob
}

// PipelineExecutor executes a Program across several simulated chips with
// chip-level pipeline parallelism: the stage list is cut into contiguous
// per-chip segments (see PartitionStages) and each chip runs on its own
// goroutine, so while chip 1 evaluates micro-batch N, chip 0 is already
// evaluating micro-batch N+1. One RunBatch call flows through every chip
// and is bit-identical to the same batch on a single-chip Executor in all
// three execution modes; throughput comes from overlapping *concurrent*
// RunBatch calls, which — unlike Executor — are safe here: jobs enqueue
// and the chips process them in order.
//
// Construction programs every weight group exactly once, in the same
// global stage order as NewExecutor and from the same RunOptions.Rng
// stream, so a sharded deployment carries the same programmed (and, in
// ModeSpikingNoisy, identically noisy) conductances as the single-chip
// deployment it replaces. Close releases the chip goroutines.
type PipelineExecutor struct {
	prog      *Program
	plan      *shard.Plan
	opts      RunOptions
	chips     []*pipeChip
	stageCols []int

	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewPipelineExecutor programs p's weight groups under opts, distributes
// them over the plan's chips and starts one goroutine per chip. A nil
// plan partitions the program over a single chip (useful for uniform
// caller code). The plan must come from p.PartitionStages: segment
// boundaries may not split a shared weight group.
func NewPipelineExecutor(p *Program, plan *shard.Plan, opts RunOptions) (*PipelineExecutor, error) {
	if plan == nil {
		var err error
		plan, err = p.PartitionStages(1, shard.PolicyBalanced)
		if err != nil {
			return nil, err
		}
	}
	n := len(p.Stages)
	if got := plan.Bounds[len(plan.Bounds)-1]; got != n {
		return nil, fmt.Errorf("synth: plan covers %d stages, program has %d", got, n)
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
	cfg := xbar.Config{
		Params: p.Params,
		Spec:   spec,
		Rep:    device.NewAdd(spec, p.Params.CellsPerWeight),
		Path:   opts.Spike,
	}

	pe := &PipelineExecutor{
		prog:      p,
		plan:      plan,
		opts:      opts,
		chips:     make([]*pipeChip, plan.Chips()),
		stageCols: make([]int, n),
	}
	for k := range pe.chips {
		pe.chips[k] = &pipeChip{
			lo:    plan.Bounds[k],
			hi:    plan.Bounds[k+1],
			units: make(map[int]*xbar.Crossbar),
			ins:   make([][]int, n),
			in:    make(chan *pipeJob, 1),
		}
	}
	// Program each group once, in global first-use stage order — the
	// exact draw order NewExecutor uses, so ModeSpikingNoisy variation is
	// bit-identical to the single-chip deployment. The owning chip is the
	// one whose range holds the first use; the partitioner guarantees all
	// uses fall inside it.
	programmed := make(map[int]bool, len(p.Graph.Groups))
	for si, st := range p.Stages {
		grp := p.Graph.Groups[st.GroupID]
		pe.stageCols[si] = grp.Cols
		if programmed[st.GroupID] {
			continue
		}
		programmed[st.GroupID] = true
		chip := pe.chips[pe.chipOf(si)]
		if si < chip.lo || si >= chip.hi {
			return nil, fmt.Errorf("synth: internal: stage %d outside its chip range", si)
		}
		c := cfg
		c.Eta = grp.Eta
		// Fault maps key on the global group ID, so a group lands on the
		// same stuck cells regardless of which chip owns it — pipelined
		// deployments see exactly the single-chip faults.
		c.Faults = opts.Faults.MaskForUnit(grp.Layer, st.GroupID, p.Params.CrossbarRows, p.Params.LogicalColumns(), grp.Rows, grp.Cols)
		u, err := xbar.Program(c, grp.Weights, opts.Rng)
		if err != nil {
			return nil, fmt.Errorf("synth: stage %d (%s): %w", si, grp.Name, err)
		}
		chip.units[st.GroupID] = u
	}
	// Group uses must not leak across the owning chip's boundary.
	for si, st := range p.Stages {
		if pe.chips[pe.chipOf(si)].units[st.GroupID] == nil {
			return nil, fmt.Errorf("synth: plan splits weight group %q across chips (stage %d)",
				p.Graph.Groups[st.GroupID].Name, si)
		}
	}

	pe.wg.Add(len(pe.chips))
	for k, chip := range pe.chips {
		var next chan *pipeJob
		if k+1 < len(pe.chips) {
			next = pe.chips[k+1].in
		}
		go pe.runChip(chip, next)
	}
	return pe, nil
}

// chipOf returns the chip index owning global stage si.
func (pe *PipelineExecutor) chipOf(si int) int { return pe.plan.ShardOf(si) }

// Chips returns the pipeline depth.
func (pe *PipelineExecutor) Chips() int { return len(pe.chips) }

// Plan returns the stage partition the pipeline runs.
func (pe *PipelineExecutor) Plan() *shard.Plan { return pe.plan }

// Mode returns the execution mode the pipeline was programmed for.
func (pe *PipelineExecutor) Mode() ExecMode { return pe.opts.Mode }

// KernelStats sums the spiking-kernel selection counters over every
// crossbar on every chip. The counters are atomics, so reading them while
// chip goroutines are mid-batch is safe (each count lands before the
// batch's results are delivered).
func (pe *PipelineExecutor) KernelStats() xbar.KernelStats {
	var st xbar.KernelStats
	for _, chip := range pe.chips {
		for _, u := range chip.units { //fpsa:nondet summing uint64 counters; order-free
			st = st.Add(u.KernelStats())
		}
	}
	return st
}

// FaultedCells sums the stuck logical cells pinned across every crossbar
// on every chip — identical to the single-chip Executor's count, since
// fault maps key on global group IDs.
func (pe *PipelineExecutor) FaultedCells() int {
	n := 0
	for _, chip := range pe.chips {
		for _, u := range chip.units { //fpsa:nondet summing int counters; order-free
			n += u.FaultedCells()
		}
	}
	return n
}

// Validate checks one input vector without executing anything.
func (pe *PipelineExecutor) Validate(input []int) error { return pe.prog.Validate(input) }

// Run executes one input vector through the chip pipeline.
func (pe *PipelineExecutor) Run(input []int) ([]int, error) {
	outs, err := pe.RunBatch([][]int{input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunBatch streams one micro-batch through every chip and returns one
// freshly allocated output slice per input, positionally — bit-identical
// to Executor.RunBatch on the same program and options. RunBatch is safe
// for concurrent use, and concurrent calls are how the pipeline earns its
// keep: while a later chip finishes batch N, earlier chips are already
// working on batches N+1, N+2, …
func (pe *PipelineExecutor) RunBatch(inputs [][]int) ([][]int, error) {
	if err := pe.prog.ValidateBatch(inputs); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, nil
	}
	job := &pipeJob{
		inputs: inputs,
		outs:   make([][]int, len(pe.prog.Stages)),
		done:   make(chan struct{}),
	}
	pe.mu.RLock()
	if pe.closed {
		pe.mu.RUnlock()
		return nil, ErrPipelineClosed
	}
	pe.chips[0].in <- job
	pe.mu.RUnlock()
	<-job.done
	return job.results, job.err
}

// Close stops the chip goroutines. In-flight jobs complete; later
// RunBatch calls return ErrPipelineClosed. Close is idempotent.
func (pe *PipelineExecutor) Close() error {
	pe.mu.Lock()
	if pe.closed {
		pe.mu.Unlock()
		return nil
	}
	pe.closed = true
	close(pe.chips[0].in)
	pe.mu.Unlock()
	pe.wg.Wait()
	return nil
}

// runChip is one chip's execution loop: evaluate the job's batch over
// the chip's stage range, then hand the job downstream (or finish it).
// Closing the first chip's channel cascades a shutdown through the
// pipeline.
func (pe *PipelineExecutor) runChip(chip *pipeChip, next chan *pipeJob) {
	defer pe.wg.Done()
	if next != nil {
		defer close(next)
	}
	for job := range chip.in {
		if job.err == nil {
			if err := pe.runStages(chip, job); err != nil {
				job.err = err
			}
		}
		if next != nil {
			next <- job
			continue
		}
		if job.err == nil {
			job.results = gatherOutputs(pe.prog, job.inputs, job.outs, pe.stageCols)
		}
		close(job.done)
	}
}

// runStages evaluates the job's batch over chip's stage range. The logic
// mirrors Executor.runBatch exactly — same gather, same kernels — so
// outputs are bit-identical; only the buffer ownership differs (outs
// travel with the job, gather scratch stays on the chip).
func (pe *PipelineExecutor) runStages(chip *pipeChip, job *pipeJob) error {
	p := pe.prog
	B := len(job.inputs)
	for si := chip.lo; si < chip.hi; si++ {
		st := p.Stages[si]
		nrows := len(st.InRefs)
		x := growInts(chip.ins[si], B*nrows)
		chip.ins[si] = x
		for b, in := range job.inputs {
			row := x[b*nrows : (b+1)*nrows]
			for r, ref := range st.InRefs {
				switch {
				case ref.Stage == ExternalStage:
					row[r] = in[ref.Col]
				case ref.Stage == ZeroStage:
					row[r] = 0
				case ref.Stage >= 0 && ref.Stage < si:
					row[r] = job.outs[ref.Stage][b*pe.stageCols[ref.Stage]+ref.Col]
				default:
					return fmt.Errorf("synth: stage %d row %d references stage %d", si, r, ref.Stage)
				}
			}
		}
		out := make([]int, B*pe.stageCols[si])
		job.outs[si] = out
		unit := chip.units[st.GroupID]
		var err error
		switch pe.opts.Mode {
		case ModeReference:
			err = unit.ReferenceBatch(out, x, B)
		case ModeSpiking, ModeSpikingNoisy:
			err = unit.SimulateCountsBatch(out, x, B)
		default:
			err = fmt.Errorf("unknown exec mode %d", pe.opts.Mode)
		}
		if err != nil {
			return fmt.Errorf("synth: stage %d (%s): %w", si, p.Graph.Groups[st.GroupID].Name, err)
		}
	}
	return nil
}
