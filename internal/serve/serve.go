// Package serve implements a concurrent inference engine over deployed
// spiking-network programs (synth.Program): a pool of programmed
// synth.Executors that callers borrow. A request runs where it arrives —
// Infer takes an idle executor, runs the sample on the calling goroutine
// and puts the executor back; there is no queue, no worker goroutine and
// no hand-off between caller and kernel. A batch call is cut into
// MaxBatch-sized chunks and also takes other executors idle at that
// moment, so a lone caller still spreads over the pool. A caller that finds
// the pool empty waits for the next executor to come back. It is the
// serving substrate behind the public fpsa.Engine API and cmd/fpsa-serve.
//
// The pool holds Workers privately programmed executors at every chip
// count — cycle-level simulation state is never shared across goroutines,
// exactly as each replica carries its own programmed crossbars — and all
// are programmed identically, so any one answers as any other. With
// Options.Chips ≥ 2 each executor's program is partitioned across that
// many simulated chips, and a request walks them in order on its own
// goroutine.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpsa/internal/device"
	"fpsa/internal/shard"
	"fpsa/internal/synth"
	"fpsa/internal/xbar"
)

// Options configures an Engine.
type Options struct {
	// Workers is how many privately programmed executors the pool holds,
	// and so how many requests can hold one at once, at every chip count.
	// 0 means 1.
	Workers int
	// MaxBatch is the size InferBatch cuts a call into, and so the most
	// samples one batched kernel pass carries. 0 means 8.
	MaxBatch int
	// Mode selects the execution semantics for every executor.
	Mode synth.ExecMode
	// Seed derives the programming-variation RNG in ModeSpikingNoisy: the
	// first draw of a stream seeded here is the sub-seed every executor is
	// programmed from, so all carry identical variation and a reply does
	// not depend on which executor a request borrowed.
	Seed int64
	// Chips, when ≥ 2, serves the program as a sharded deployment: every
	// executor's stage list is partitioned across that many chips
	// (clamped to what the program supports). 0 or 1 is a single chip.
	Chips int
	// Faults, when active, injects the deployment's device fault
	// scenario into every executor. Fault maps are a deterministic
	// function of the model and each weight group's global ID, so every
	// replica sees identical faults at any executor or chip count.
	Faults *device.FaultModel
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	return o
}

// ErrClosed is returned by Infer after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// Engine is a concurrent inference engine: a pool of programmed executors
// that requests borrow and drive from their own goroutine. Construct with
// New, call Infer/InferBatch, and Close when done.
type Engine struct {
	opts  Options
	stats tracker
	// execs is every programmed executor, Workers of them. Stats visits
	// each exactly once (kernel counters are atomic, so reads race
	// nothing).
	execs []*synth.Executor
	// idle holds the executors no request holds right now: each is used by
	// one goroutine at a time, by possession.
	idle    chan *synth.Executor
	waiting atomic.Int64 // callers blocked on an empty pool
	procs   int          // GOMAXPROCS when the engine was built

	mu     sync.RWMutex
	closed bool
	calls  sync.WaitGroup // calls that entered and have not returned
}

// New builds the engine: it partitions prog across opts.Chips chips
// (clamped to what it supports), programs opts.Workers private executors
// over that plan (surfacing programming errors synchronously) and fills
// the pool with them.
func New(prog *synth.Program, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{opts: opts, procs: runtime.GOMAXPROCS(0)}
	// A nil plan is a single chip; only a sharded request pays for the
	// partition search. The cut is always balanced: pipeline throughput is
	// set by the slowest chip, and no cut can change an output.
	var plan *shard.Plan
	if opts.Chips >= 2 {
		var err error
		if plan, err = prog.PartitionStages(opts.Chips, shard.PolicyBalanced); err != nil {
			return nil, fmt.Errorf("serve: partitioning across %d chips: %w", opts.Chips, err)
		}
	}
	e.execs = make([]*synth.Executor, opts.Workers)
	e.idle = make(chan *synth.Executor, opts.Workers)
	// The sub-seed is a draw from Seed's stream rather than Seed itself so
	// engines with adjacent seeds never share programming variation.
	sub := rand.New(rand.NewSource(opts.Seed)).Int63()
	for i := range e.execs {
		ropts := synth.RunOptions{Mode: opts.Mode, Faults: opts.Faults}
		if opts.Mode == synth.ModeSpikingNoisy {
			ropts.Rng = rand.New(rand.NewSource(sub))
		}
		ex, err := synth.NewPipelineExecutor(prog, plan, ropts)
		if err != nil {
			return nil, fmt.Errorf("serve: executor %d: %w", i, err)
		}
		e.execs[i] = ex
		e.idle <- ex
	}
	e.stats.start = time.Now()
	return e, nil
}

// Workers returns how many requests can hold an executor at once.
func (e *Engine) Workers() int { return e.opts.Workers }

// Chips returns the realized chip count: 1 on a single chip, the sharded
// chip count otherwise.
func (e *Engine) Chips() int { return e.execs[0].Chips() }

// enter admits one call unless the engine is closed; the caller owes
// e.calls.Done. The RLock keeps a call from slipping in behind Close's wait.
func (e *Engine) enter() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.calls.Add(1)
	return nil
}

// borrow takes an executor out of the pool for a call of n samples: one
// that is idle right now, else the next to come back. A caller whose ctx
// ends first leaves at once, its samples counted as shed. The caller owes
// the executor back to e.idle.
func (e *Engine) borrow(ctx context.Context, n int) (*synth.Executor, error) {
	err := ctx.Err()
	if err == nil {
		select {
		case ex := <-e.idle:
			return ex, nil
		default:
		}
		e.waiting.Add(1)
		defer e.waiting.Add(-1)
		select {
		case ex := <-e.idle:
			return ex, nil
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	e.stats.shed.Add(uint64(n))
	return nil, err
}

// runChunk is the engine's one kernel call: at most MaxBatch inputs as a
// single RunBatch on a borrowed executor, results copied into outs
// positionally. RunBatch validates every sample and a chunk never mixes
// callers, so a malformed sample fails only its own call. start is when
// the call arrived: the latency recorded is wait plus run.
func (e *Engine) runChunk(ex *synth.Executor, inputs, outs [][]int, start time.Time) error {
	res, err := ex.RunBatch(inputs)
	if err != nil {
		e.stats.errors.Add(uint64(len(inputs)))
	} else {
		e.stats.recordExecBatch(len(inputs))
		copy(outs, res)
	}
	e.stats.recordDone(len(inputs), time.Since(start))
	return err
}

// Infer runs one input vector of spike counts on the calling goroutine and
// returns the program's raw output counts. It waits (for an executor, or
// for ctx to end) only when every executor is lent out; once it holds one
// the sample runs to completion whatever happens to ctx.
func (e *Engine) Infer(ctx context.Context, input []int) ([]int, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.calls.Done()
	start := time.Now()
	ex, err := e.borrow(ctx, 1)
	if err != nil {
		return nil, err
	}
	defer func() { e.idle <- ex }() // also when the kernel panics
	var out [1][]int
	err = e.runChunk(ex, [][]int{input}, out[:], start)
	return out[0], err
}

// batchCall is what the pieces of one InferBatch call share; a piece is
// one borrowed executor working through chunks of the call.
type batchCall struct {
	e            *Engine
	ctx          context.Context
	inputs, outs [][]int
	start        time.Time
	chunks       int
	claimed      atomic.Int64 // chunks handed out so far

	mu       sync.Mutex
	err      error // of the lowest-numbered chunk that failed
	errChunk int
	panicked atomic.Pointer[any] // a panic under a spawned piece
}

// run is one piece: chunk first, then whatever it can still claim, one
// pass on ex each; ex goes back to the pool on every path, a panic under
// the kernel included. Every chunk is claimed exactly once and either
// runs or, once ctx has ended, is shed.
func (c *batchCall) run(ex *synth.Executor, first int) {
	e := c.e
	defer func() { e.idle <- ex }()
	step := e.opts.MaxBatch
	for i := first; i < c.chunks; i = int(c.claimed.Add(1)) - 1 {
		lo, hi := i*step, min((i+1)*step, len(c.inputs))
		err := c.ctx.Err()
		if err != nil {
			e.stats.shed.Add(uint64(hi - lo))
		} else if err = e.runChunk(ex, c.inputs[lo:hi], c.outs[lo:hi], c.start); err != nil {
			err = fmt.Errorf("serve: batch samples %d to %d: %w", lo, hi-1, err)
		}
		if err != nil {
			c.mu.Lock()
			if c.err == nil || i < c.errChunk {
				c.err, c.errChunk = err, i
			}
			c.mu.Unlock()
		}
	}
}

// InferBatch runs inputs as ⌈n/MaxBatch⌉ chunks of at most MaxBatch
// samples, one kernel pass each, and returns positional results once every
// chunk has settled. It borrows one executor as Infer does, then takes —
// never waiting — one more per further chunk from those idle right now, so
// a lone call still spreads over the pool. When ctx ends it starts no more
// chunks, waits for the passes in flight and returns ctx's error;
// otherwise it returns the error of the first chunk that failed, if any.
// Nothing of the call runs, or reads inputs, after it returns.
func (e *Engine) InferBatch(ctx context.Context, inputs [][]int) ([][]int, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.calls.Done()
	n, step := len(inputs), e.opts.MaxBatch
	if n == 0 {
		return [][]int{}, nil
	}
	c := &batchCall{e: e, ctx: ctx, inputs: inputs, outs: make([][]int, n), start: time.Now(), chunks: (n + step - 1) / step}
	own, err := e.borrow(ctx, n)
	if err != nil {
		return nil, err
	}
	// Fanning out pays only onto an idle processor: once as many executors
	// are lent out as there are processors, another piece would share a
	// core with this one while a later caller found the pool empty.
	var extra []*synth.Executor
take:
	for len(extra) < c.chunks-1 && e.opts.Workers-len(e.idle) < e.procs {
		select {
		case ex := <-e.idle:
			extra = append(extra, ex)
		default:
			break take
		}
	}
	// Piece k starts on chunk k, reserved before any piece runs so that
	// every borrowed executor has work, and claims the rest one at a time.
	c.claimed.Store(int64(1 + len(extra)))
	if len(extra) == 0 {
		c.run(own, 0)
	} else {
		// A call that fans out runs every piece — its own executor's too —
		// on a spawned goroutine and blocks. Running one inline leaves the
		// helper in this P's runnext slot, which another P steals only
		// after a timer-driven back-off: a lone caller's second chunk then
		// starts most of a millisecond late (numbers in ARCHITECTURE.md).
		var wg sync.WaitGroup
		for k, ex := range append(extra, own) {
			wg.Add(1)
			go func(ex *synth.Executor, first int) {
				defer wg.Done()
				// Left alone, a panic here would kill the process from a
				// goroutine no caller can recover on; the caller re-raises it.
				defer func() {
					if r := recover(); r != nil {
						c.panicked.Store(&r)
					}
				}()
				c.run(ex, first)
			}(ex, k)
		}
		wg.Wait()
		if r := c.panicked.Load(); r != nil {
			panic(*r)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.outs, nil
}

// Close stops admitting calls and waits for every call already inside —
// running or still waiting for an executor — to return. Subsequent calls
// return ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.calls.Wait()
	return nil
}

// QueueDepth reports how many calls are waiting for an executor right
// now; calls that hold one are not counted.
func (e *Engine) QueueDepth() int { return int(e.waiting.Load()) }

// Stats snapshots the engine's counters and latency percentiles,
// including the spiking-kernel call counters summed over every executor,
// each counted once at any chip count. FaultedCells is one
// executor's count: every replica programs identical fault maps (they key
// on the model and the global group IDs, not the replica), so it IS the
// deployment's — summing replicas would overcount chip state that exists
// once.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.Workers = e.opts.Workers
	s.MaxBatch = e.opts.MaxBatch
	s.Chips = e.Chips()
	s.QueueDepth = e.QueueDepth()
	var ks xbar.KernelStats
	for _, ex := range e.execs {
		ks = ks.Add(ex.KernelStats())
	}
	s.SparseKernels = ks.SparseBatches
	s.SpikeDensity = ks.Density()
	s.FaultedCells = e.execs[0].FaultedCells()
	return s
}
