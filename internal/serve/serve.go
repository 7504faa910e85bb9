// Package serve implements a concurrent, work-conserving inference engine
// over deployed spiking-network programs (synth.Program). The engine owns
// one request queue, a pool of workers and the synth.Executors they drive.
// Workers pull from the queue themselves: an idle worker blocks for one
// entry, takes whatever else is already queued (up to MaxBatch samples,
// never waiting for more) and runs it as ONE Executor.RunBatch call.
// Nothing sits between an arriving request and an idle worker, and
// batching is whatever piled up while the workers were busy. It is the
// serving substrate behind the public fpsa.Engine API and cmd/fpsa-serve.
//
// How many executors there are follows from the realized chip count. On
// one chip each worker holds its own programmed executor — cycle-level
// simulation state is never shared across goroutines, exactly as each
// replica chip carries its own programmed crossbars. With Options.Chips
// ≥ 2 the engine serves a sharded deployment: one executor whose program
// is partitioned across that many simulated chips, shared by every
// worker. Workers then act as concurrent feeders keeping the chip
// pipeline full — micro-batch N+1 enters chip 0 while micro-batch N is
// still on a later chip — which is where a model too big for one fabric
// gets its throughput back.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/synth"
	"fpsa/internal/xbar"
)

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size; each worker programs its own
	// Executor. 0 means 1.
	Workers int
	// MaxBatch caps the samples a worker takes from the queue for one
	// batched kernel pass, and is the size InferBatch chunks a call into
	// (so one call spreads over the workers). 0 means 8.
	MaxBatch int
	// QueueDepth bounds the request queue, counted in entries: one Infer
	// call or one ≤ MaxBatch chunk of an InferBatch call. Infer blocks
	// (or honors its context) when the queue is full. 0 means 1024.
	QueueDepth int
	// Mode selects the execution semantics for every worker.
	Mode synth.ExecMode
	// Seed derives each worker's programming-variation RNG in
	// ModeSpikingNoisy; each worker draws an independent sub-seed from
	// one stream seeded here. A sharded engine (Chips ≥ 2) is one
	// physical set of chips and draws a single variation stream.
	Seed int64
	// Chips, when ≥ 2, serves the program as a sharded deployment: the
	// stage list is partitioned across that many pipelined chips
	// (per Policy, clamped to what the program supports) and every
	// worker feeds the one shared pipeline. 0 or 1 keeps the classic
	// per-worker single-chip executors.
	Chips int
	// Policy selects the stage-partitioning objective of a sharded
	// engine (default StageBalanced).
	Policy StagePolicy
	// Faults, when active, injects the deployment's device fault
	// scenario into every worker's executor (and the shared pipeline of
	// a sharded engine). Fault maps are a deterministic function of the
	// model and each weight group's global ID, so every replica sees
	// identical faults at any worker count.
	Faults *device.FaultModel
}

// StagePolicy selects how a sharded engine (Chips ≥ 2) cuts the
// program's stage list across chips. The zero value is the serving
// default: balanced per-chip load, since pipeline throughput is set by
// the slowest chip. Outputs are bit-identical under every policy — the
// cut changes where wall-clock goes, never results.
type StagePolicy int

// Stage-partitioning policies.
const (
	// StageBalanced minimizes the heaviest chip's load (the serving
	// default).
	StageBalanced StagePolicy = iota
	// StageMinCut minimizes the signal traffic crossing the inter-chip
	// links — for callers whose deployment was compiled min-cut and
	// whose links are the scarce resource.
	StageMinCut
)

// shardPolicy maps the serving policy onto the partitioner's.
func (p StagePolicy) shardPolicy() shard.Policy {
	if p == StageMinCut {
		return shard.PolicyMinCut
	}
	return shard.PolicyBalanced
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// ErrClosed is returned by Infer after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// entry is one queue element: a single Infer call, or one ≤ MaxBatch
// chunk of an InferBatch call. A worker never splits an entry. inputs and
// outs are the entry's own slice headers (never the caller's outer
// slice), so an entry abandoned by a cancelled call still runs safely.
// ctx lets workers shed entries whose callers have already given up.
type entry struct {
	ctx    context.Context
	inputs [][]int
	outs   [][]int
	enq    time.Time
	err    error
	done   chan struct{}
}

// Engine is a concurrent, work-conserving inference engine. Construct
// with New, submit with Infer/InferBatch, and Close when done.
type Engine struct {
	opts  Options
	queue chan *entry
	wg    sync.WaitGroup
	stats tracker
	// execs is every programmed executor: one per worker on a single
	// chip, one shared by all workers when sharded. Worker w drives
	// execs[w%len(execs)]; Stats and Close visit each exactly once
	// (kernel counters are atomic, so reads race nothing).
	execs []*synth.Executor

	mu     sync.RWMutex
	closed bool
}

// New builds the engine: it programs the execution state over prog
// (surfacing programming errors synchronously) and starts the worker
// goroutines. The program is partitioned across opts.Chips chips (clamped
// to what it supports); when that realizes a single chip each worker
// programs a private executor, otherwise one pipelined multi-chip
// executor is programmed and shared by every worker.
func New(prog *synth.Program, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{opts: opts}
	// A nil plan is a single chip; only a sharded request pays for the
	// partition search.
	var plan *shard.Plan
	if opts.Chips >= 2 {
		var err error
		if plan, err = prog.PartitionStages(opts.Chips, opts.Policy.shardPolicy()); err != nil {
			return nil, fmt.Errorf("serve: partitioning across %d chips: %w", opts.Chips, err)
		}
	}
	execs := opts.Workers
	if plan != nil && plan.Chips() >= 2 {
		execs = 1
	}
	e.execs = make([]*synth.Executor, execs)
	// Executor seeds come from one stream rather than Seed+w so engines
	// with adjacent seeds never share replica programming variation.
	seeds := rand.New(rand.NewSource(opts.Seed))
	for i := range e.execs {
		ropts := synth.RunOptions{Mode: opts.Mode, Faults: opts.Faults}
		if opts.Mode == synth.ModeSpikingNoisy {
			ropts.Rng = rand.New(rand.NewSource(seeds.Int63()))
		}
		ex, err := synth.NewPipelineExecutor(prog, plan, ropts)
		if err != nil {
			return nil, fmt.Errorf("serve: executor %d: %w", i, err)
		}
		e.execs[i] = ex
	}
	e.queue = make(chan *entry, opts.QueueDepth)
	e.stats.start = time.Now()
	e.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go e.worker(e.execs[w%len(e.execs)])
	}
	return e, nil
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Chips returns the realized pipeline depth: 1 for the per-worker
// single-chip layout, the sharded chip count otherwise.
func (e *Engine) Chips() int { return e.execs[0].Chips() }

// Infer queues one input vector of spike counts and blocks until a worker
// classifies it or ctx is done. The returned slice is the program's raw
// output counts.
func (e *Engine) Infer(ctx context.Context, input []int) ([]int, error) {
	io := [][]int{input, nil}
	en := &entry{ctx: ctx, inputs: io[:1:1], outs: io[1:], enq: time.Now(), done: make(chan struct{})}
	if err := e.submit(ctx, en); err != nil {
		return nil, err
	}
	select {
	case <-en.done:
		return en.outs[0], en.err
	case <-ctx.Done():
		// The entry is already queued; a worker will still run it, but
		// the caller has moved on.
		return nil, ctx.Err()
	}
}

// InferBatch queues inputs as ⌈n/MaxBatch⌉ entries of at most MaxBatch
// samples each and waits for all of them, so one call spreads over the
// workers in whole kernel batches. Results are positional; the first
// entry error (if any) is returned after all entries settle.
func (e *Engine) InferBatch(ctx context.Context, inputs [][]int) ([][]int, error) {
	n, step := len(inputs), e.opts.MaxBatch
	// Entries outlive a cancelled call, so they view copies of the slice
	// headers, not the caller's outer slice.
	ins := append([][]int(nil), inputs...)
	outs := make([][]int, n)
	entries := make([]entry, (n+step-1)/step)
	for i := range entries {
		lo, hi := i*step, min((i+1)*step, n)
		entries[i] = entry{ctx: ctx, inputs: ins[lo:hi:hi], outs: outs[lo:hi:hi], enq: time.Now(), done: make(chan struct{})}
		if err := e.submit(ctx, &entries[i]); err != nil {
			// Already-queued entries still run to completion; the
			// caller has moved on, as in Infer's cancellation path.
			return nil, err
		}
	}
	var firstErr error
	for i := range entries {
		select {
		case <-entries[i].done:
			if err := entries[i].err; err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// submit enqueues en, blocking while the queue is full. The RLock pairs
// with Close's exclusive lock so no send can race the channel close.
func (e *Engine) submit(ctx context.Context, en *entry) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.queue <- en:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue, stops the workers (and, on a sharded engine,
// the chip pipeline), and releases the engine. Queued entries still
// complete; subsequent Infer calls return ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
	for _, ex := range e.execs {
		ex.Close() // a pipeline's chip goroutines; never fails
	}
	return nil
}

// worker pulls from the queue until it closes: block for one entry, take
// whatever else is already queued while it fits in MaxBatch samples —
// never waiting for more — and run the lot as one RunBatch call, on a
// private single-chip executor or on the shared chip pipeline, where
// concurrent workers are exactly what keeps every chip busy. An entry
// that does not fit is carried over to head this worker's next batch
// (entries are never split), so it still runs before the worker exits on
// Close.
func (e *Engine) worker(ex *synth.Executor) {
	defer e.wg.Done()
	var (
		batch  []*entry
		inputs [][]int
		carry  *entry
	)
	for {
		first := carry
		carry = nil
		if first == nil {
			var ok bool
			if first, ok = <-e.queue; !ok {
				return
			}
		}
		batch = append(batch[:0], first)
		n := len(first.inputs)
	fill:
		for n < e.opts.MaxBatch {
			select {
			case next, ok := <-e.queue:
				if !ok {
					break fill
				}
				if n+len(next.inputs) > e.opts.MaxBatch {
					carry = next
					break fill
				}
				batch = append(batch, next)
				n += len(next.inputs)
			default:
				break fill
			}
		}
		inputs = e.run(ex, batch, inputs[:0])
	}
}

// run executes one batch of entries as a single RunBatch call over
// inputs' backing array (returned for reuse). Entries whose callers
// already gave up (context done while queued) are shed without
// simulating, so client timeouts actually relieve load, and an entry with
// a malformed input fails alone in pre-flight validation so it cannot
// poison another caller's entry.
func (e *Engine) run(ex *synth.Executor, batch []*entry, inputs [][]int) [][]int {
	live := batch[:0]
	for _, en := range batch {
		if err := en.ctx.Err(); err != nil {
			en.err = err
			e.stats.shed.Add(uint64(len(en.inputs)))
			close(en.done)
			continue
		}
		if err := validate(ex, en.inputs); err != nil {
			e.finish(en, err)
			continue
		}
		live = append(live, en)
		inputs = append(inputs, en.inputs...)
	}
	if len(live) == 0 {
		return inputs
	}
	outs, err := ex.RunBatch(inputs)
	e.stats.recordExecBatch(len(inputs))
	off := 0
	for _, en := range live {
		if err == nil {
			off += copy(en.outs, outs[off:])
		}
		e.finish(en, err)
	}
	return inputs
}

// validate pre-flights every input of one entry.
func validate(ex *synth.Executor, inputs [][]int) error {
	for _, in := range inputs {
		if err := ex.Validate(in); err != nil {
			return err
		}
	}
	return nil
}

// finish settles an executed (or rejected) entry: counters by sample,
// one latency observation per entry, then the caller's wake-up.
func (e *Engine) finish(en *entry, err error) {
	en.err = err
	if err != nil {
		e.stats.errors.Add(uint64(len(en.inputs)))
	}
	e.stats.recordDone(len(en.inputs), time.Since(en.enq))
	close(en.done)
}

// QueueDepth reports how many entries (Infer calls and InferBatch
// chunks) are waiting in the queue right now; entries a worker has taken
// are not counted.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Stats snapshots the engine's counters and latency percentiles,
// including the spiking-kernel selection counters summed over every
// executor — each worker's own on a single chip, the one shared pipeline
// (counted once, not per worker) when sharded. FaultedCells is one
// executor's count: every replica programs identical fault maps (they key
// on the model and the global group IDs, not the replica), so it IS the
// deployment's — summing replicas would overcount chip state that exists
// once.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.Workers = e.opts.Workers
	s.MaxBatch = e.opts.MaxBatch
	s.Chips = e.Chips()
	s.QueueDepth = len(e.queue)
	var ks xbar.KernelStats
	for _, ex := range e.execs {
		ks = ks.Add(ex.KernelStats())
	}
	s.SparseKernels = ks.SparseBatches
	s.DenseKernels = ks.DenseBatches
	s.SpikeDensity = ks.Density()
	s.FaultedCells = e.execs[0].FaultedCells()
	return s
}
