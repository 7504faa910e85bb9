// Package serve implements a concurrent, micro-batched inference engine
// over deployed spiking-network programs (synth.Program). The engine owns
// a request queue, a batcher that flushes on batch size or deadline, and
// a pool of workers each holding its own programmed synth.Executor —
// cycle-level simulation state is never shared across goroutines, exactly
// as each replica chip carries its own programmed crossbars. Workers
// execute each flushed micro-batch as ONE Executor.RunBatch call, so
// MaxBatch is a throughput knob (every stage's crossbar evaluates the
// whole batch through the shared internal/xbar kernel), not just a
// latency/queueing knob. It is the serving substrate behind the public
// fpsa.Engine API and cmd/fpsa-serve.
//
// With Options.Chips ≥ 2 the engine serves a sharded deployment instead:
// one synth.PipelineExecutor whose program is partitioned across that
// many simulated chips, shared by every worker. Workers then act as
// concurrent feeders keeping the chip pipeline full — micro-batch N+1
// enters chip 0 while micro-batch N is still on a later chip — which is
// where a model too big for one fabric gets its throughput back.
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

// runner is the execution surface a worker drives: a private single-chip
// synth.Executor, or the engine's shared multi-chip pipeline. KernelStats
// exposes the spiking-kernel selection counters for Stats aggregation.
type runner interface {
	Validate(input []int) error
	RunBatch(inputs [][]int) ([][]int, error)
	KernelStats() xbar.KernelStats
	FaultedCells() int
}

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size; each worker programs its own
	// Executor. 0 means 1.
	Workers int
	// MaxBatch flushes the accumulating micro-batch when it reaches this
	// many requests; a flushed batch is executed in one batched kernel
	// pass, so larger values trade queueing latency for per-stage
	// throughput. 0 means 8.
	MaxBatch int
	// FlushInterval flushes a non-empty micro-batch this long after its
	// first request arrived, bounding queueing latency under light load.
	// 0 means 500µs.
	FlushInterval time.Duration
	// QueueDepth bounds the request queue; Infer blocks (or honors its
	// context) when the queue is full. 0 means 1024.
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
	if o.FlushInterval <= 0 {
		o.FlushInterval = 500 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// ErrClosed is returned by Infer after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// request is one queued classification. ctx lets workers shed requests
// whose callers have already given up.
type request struct {
	ctx   context.Context
	input []int
	enq   time.Time
	out   []int
	err   error
	done  chan struct{}
}

// Engine is a concurrent, micro-batched inference engine. Construct with
// New, submit with Infer/InferBatch, and Close when done.
type Engine struct {
	opts    Options
	reqs    chan *request
	batches chan []*request
	wg      sync.WaitGroup
	stats   tracker
	// pipe is the shared multi-chip pipeline of a sharded engine (nil
	// for the per-worker single-chip layout); chips is the realized
	// pipeline depth (1 when unsharded). runners keeps every execution
	// surface so Stats can aggregate kernel-selection counters (their
	// counters are atomic, so reads race nothing).
	pipe    *synth.PipelineExecutor
	chips   int
	runners []runner

	mu     sync.RWMutex
	closed bool
}

// New builds the engine: it programs the execution state over prog
// (surfacing programming errors synchronously) and starts the batcher and
// worker goroutines. With opts.Chips ≤ 1 each worker programs a private
// single-chip executor; with opts.Chips ≥ 2 one pipelined multi-chip
// executor is programmed and shared by every worker.
func New(prog *synth.Program, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{
		opts:  opts,
		chips: 1,
	}
	runners := make([]runner, opts.Workers)
	// Worker seeds come from one stream rather than Seed+w so engines
	// with adjacent seeds never share replica programming variation.
	seeds := rand.New(rand.NewSource(opts.Seed))
	if opts.Chips >= 2 {
		plan, err := prog.PartitionStages(opts.Chips, opts.Policy.shardPolicy())
		if err != nil {
			return nil, fmt.Errorf("serve: partitioning across %d chips: %w", opts.Chips, err)
		}
		ropts := synth.RunOptions{Mode: opts.Mode, Faults: opts.Faults}
		if opts.Mode == synth.ModeSpikingNoisy {
			ropts.Rng = rand.New(rand.NewSource(seeds.Int63()))
		}
		pipe, err := synth.NewPipelineExecutor(prog, plan, ropts)
		if err != nil {
			return nil, fmt.Errorf("serve: sharded executor: %w", err)
		}
		e.pipe = pipe
		e.chips = pipe.Chips()
		for w := range runners {
			runners[w] = pipe
		}
	} else {
		for w := range runners {
			ropts := synth.RunOptions{Mode: opts.Mode, Faults: opts.Faults}
			if opts.Mode == synth.ModeSpikingNoisy {
				ropts.Rng = rand.New(rand.NewSource(seeds.Int63()))
			}
			ex, err := synth.NewExecutor(prog, ropts)
			if err != nil {
				return nil, fmt.Errorf("serve: worker %d: %w", w, err)
			}
			runners[w] = ex
		}
	}
	e.runners = runners
	e.reqs = make(chan *request, opts.QueueDepth)
	e.batches = make(chan []*request, opts.Workers)
	e.stats.start = time.Now()
	e.wg.Add(1 + opts.Workers)
	go e.batcher()
	for _, r := range runners {
		go e.worker(r)
	}
	return e, nil
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Chips returns the realized pipeline depth: 1 for the per-worker
// single-chip layout, the sharded chip count otherwise.
func (e *Engine) Chips() int { return e.chips }

// Infer queues one input vector of spike counts and blocks until a worker
// classifies it or ctx is done. The returned slice is the program's raw
// output counts.
func (e *Engine) Infer(ctx context.Context, input []int) ([]int, error) {
	r := &request{ctx: ctx, input: input, enq: time.Now(), done: make(chan struct{})}
	if err := e.submit(ctx, r); err != nil {
		return nil, err
	}
	select {
	case <-r.done:
		return r.out, r.err
	case <-ctx.Done():
		// The request is already queued; a worker will still run it, but
		// the caller has moved on.
		return nil, ctx.Err()
	}
}

// InferBatch queues every input and waits for all results, so one call
// naturally fills micro-batches. Results are positional; the first
// request error (if any) is returned after all requests settle.
func (e *Engine) InferBatch(ctx context.Context, inputs [][]int) ([][]int, error) {
	rs := make([]*request, len(inputs))
	for i, in := range inputs {
		r := &request{ctx: ctx, input: in, enq: time.Now(), done: make(chan struct{})}
		if err := e.submit(ctx, r); err != nil {
			// Already-queued requests still run to completion; the
			// caller has moved on, as in Infer's cancellation path.
			return nil, err
		}
		rs[i] = r
	}
	outs := make([][]int, len(rs))
	var firstErr error
	for i, r := range rs {
		select {
		case <-r.done:
			outs[i] = r.out
			if r.err != nil && firstErr == nil {
				firstErr = r.err
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

// submit enqueues r, blocking while the queue is full. The RLock pairs
// with Close's exclusive lock so no send can race the channel close.
func (e *Engine) submit(ctx context.Context, r *request) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.reqs <- r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue, stops the workers (and, on a sharded engine,
// the chip pipeline), and releases the engine. Queued requests still
// complete; subsequent Infer calls return ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.reqs)
	e.mu.Unlock()
	e.wg.Wait()
	if e.pipe != nil {
		return e.pipe.Close()
	}
	return nil
}

// batcher accumulates requests into micro-batches and flushes on size or
// deadline. The deadline timer starts at each batch's first request, so a
// lone request under light load waits at most FlushInterval.
func (e *Engine) batcher() {
	defer e.wg.Done()
	defer close(e.batches)
	timer := time.NewTimer(e.opts.FlushInterval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var batch []*request
	flush := func() {
		if len(batch) == 0 {
			return
		}
		e.stats.recordBatch()
		e.batches <- batch
		batch = nil
	}
	for {
		if len(batch) == 0 {
			r, ok := <-e.reqs
			if !ok {
				return
			}
			batch = append(batch, r)
			timer.Reset(e.opts.FlushInterval)
			if len(batch) >= e.opts.MaxBatch {
				stopTimer(timer)
				flush()
			}
			continue
		}
		select {
		case r, ok := <-e.reqs:
			if !ok {
				stopTimer(timer)
				flush()
				return
			}
			batch = append(batch, r)
			if len(batch) >= e.opts.MaxBatch {
				stopTimer(timer)
				flush()
			}
		case <-timer.C:
			flush()
		}
	}
}

// stopTimer stops t and drains a pending fire so the next Reset arms
// cleanly.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// worker runs whole micro-batches on its runner until the batch channel
// closes: each flushed batch becomes one RunBatch call — on a private
// single-chip executor, or on the shared chip pipeline, where concurrent
// workers are exactly what keeps every chip busy. Requests whose callers
// already gave up (context done while queued) are shed without
// simulating, so client timeouts actually relieve load, and malformed
// requests fail individually in pre-flight validation so they cannot
// poison the rest of the batch.
func (e *Engine) worker(ex runner) {
	defer e.wg.Done()
	var live []*request
	var inputs [][]int
	for batch := range e.batches {
		live, inputs = live[:0], inputs[:0]
		for _, r := range batch {
			if err := r.ctx.Err(); err != nil {
				r.err = err
				e.stats.shed.Add(1)
				close(r.done)
				continue
			}
			if err := ex.Validate(r.input); err != nil {
				r.err = err
				e.stats.errors.Add(1)
				e.stats.recordDone(time.Since(r.enq))
				close(r.done)
				continue
			}
			live = append(live, r)
			inputs = append(inputs, r.input)
		}
		if len(live) == 0 {
			continue
		}
		outs, err := ex.RunBatch(inputs)
		e.stats.recordExecBatch(len(live))
		for i, r := range live {
			if err != nil {
				r.err = err
				e.stats.errors.Add(1)
			} else {
				r.out = outs[i]
			}
			e.stats.recordDone(time.Since(r.enq))
			close(r.done)
		}
	}
}

// QueueDepth reports how many requests are waiting in the queue right
// now.
func (e *Engine) QueueDepth() int { return len(e.reqs) }

// Stats snapshots the engine's counters and latency percentiles,
// including the spiking-kernel selection counters aggregated across every
// execution replica (or the one shared pipeline of a sharded engine).
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.Workers = e.opts.Workers
	s.MaxBatch = e.opts.MaxBatch
	s.Chips = e.chips
	s.QueueDepth = len(e.reqs)
	ks := e.kernelStats()
	s.SparseKernels = ks.SparseBatches
	s.DenseKernels = ks.DenseBatches
	s.SpikeDensity = ks.Density()
	s.FaultedCells = e.faultedCells()
	return s
}

// faultedCells reports the deployment's residual stuck-cell count. Every
// replica programs identical fault maps (they key on the model and the
// global group IDs, not the replica), so one executor's count IS the
// deployment's — summing replicas would overcount chip state that exists
// once.
func (e *Engine) faultedCells() int {
	if e.pipe != nil {
		return e.pipe.FaultedCells()
	}
	if len(e.runners) > 0 {
		return e.runners[0].FaultedCells()
	}
	return 0
}

// kernelStats aggregates kernel-selection counters. A sharded engine's
// workers all share the one pipeline, so it is counted once, not per
// worker.
func (e *Engine) kernelStats() xbar.KernelStats {
	if e.pipe != nil {
		return e.pipe.KernelStats()
	}
	var st xbar.KernelStats
	for _, r := range e.runners {
		st = st.Add(r.KernelStats())
	}
	return st
}
