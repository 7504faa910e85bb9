// Package serve implements a concurrent inference engine over deployed
// spiking-network programs (synth.Program): a pool of programmed
// synth.Executors that callers borrow. A request of feature vectors runs
// where it arrives — it takes an idle executor, which quantizes the
// samples against its program's sampling window and runs them on the
// calling goroutine, and puts the executor back; there is no queue, no
// worker goroutine and no hand-off between caller and kernel. A batch call is cut into
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
	// MaxBatch is the size a batch call is cut into, and so the most
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

// ErrClosed is returned by every call after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// Engine is a concurrent inference engine: a pool of programmed executors
// that requests borrow and drive from their own goroutine. Construct with
// New, call ClassifyBatch or Outputs with feature vectors, and Close when
// done.
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
	outputs int          // output counts per sample

	// state counts the calls that entered and have not returned, with
	// closedBit set once Close has begun; the last call to leave after
	// that closes drained, once.
	state     atomic.Int64
	drained   chan struct{}
	drainOnce sync.Once
}

// closedBit marks Engine.state closed: far above any count of calls.
const closedBit = 1 << 62

// New builds the engine: it partitions prog across opts.Chips chips
// (clamped to what it supports), programs opts.Workers private executors
// over that plan (surfacing programming errors synchronously) and fills
// the pool with them.
func New(prog *synth.Program, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{opts: opts, procs: runtime.GOMAXPROCS(0), outputs: len(prog.OutputRefs), drained: make(chan struct{})}
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

// Chips returns the realized chip count: 1 on a single chip, the sharded
// chip count otherwise.
func (e *Engine) Chips() int { return e.execs[0].Chips() }

// enter admits one call unless the engine is closed; the caller owes
// e.leave. A call counts itself in before it looks at the closed bit, so
// either Close sees it and waits, or it sees Close and backs out.
func (e *Engine) enter() error {
	if e.state.Add(1)&closedBit != 0 {
		e.leave()
		return ErrClosed
	}
	return nil
}

// leave counts a call out, waking Close when it was the last one inside.
func (e *Engine) leave() {
	if e.state.Add(-1) == closedBit {
		e.drainOnce.Do(func() { close(e.drained) })
	}
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

// runChunk is the engine's one kernel call for spike counts: at most
// MaxBatch inputs as a single RunBatch on a borrowed executor, results
// copied into outs positionally. RunBatch validates every sample and a
// chunk never mixes callers, so a malformed sample fails only its own
// call. It, Infer, InferBatch and batchCall's inputs and outs stay for
// bench/ (ROADMAP item 1(f)).
func (e *Engine) runChunk(ex *synth.Executor, inputs, outs [][]int, start time.Time) error {
	res, err := ex.RunBatch(inputs)
	if err == nil {
		copy(outs, res)
	}
	e.settle(len(inputs), start, err)
	return err
}

// settle records one kernel call of n samples that ended with err. start
// is when its call arrived: the latency recorded is wait plus run.
func (e *Engine) settle(n int, start time.Time, err error) {
	if err != nil {
		e.stats.errors.Add(uint64(n))
	} else {
		e.stats.recordExecBatch(n)
	}
	e.stats.recordDone(n, time.Since(start))
}

// Infer runs one input vector of spike counts on the calling goroutine and
// returns the program's raw output counts, as a one-row Outputs does for
// features. It stays for bench/ (ROADMAP item 1(f)).
func (e *Engine) Infer(ctx context.Context, input []int) ([]int, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.leave()
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

// batchCall is what the pieces of one batch call share; a piece is one
// borrowed executor working through chunks of the call. The call carries
// feature vectors (Outputs, ClassifyBatch), which the executor quantizes
// itself and whose output counts or classes it writes into dst, or spike
// counts (InferBatch), whose outputs land in outs.
type batchCall struct {
	e            *Engine
	ctx          context.Context
	n            int // samples
	inputs, outs [][]int
	features     [][]float64
	dst          []int
	classes      bool
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
// runs or, once ctx has ended, is shed. A failed chunk's error names its
// samples, unless the call has only the one sample.
func (c *batchCall) run(ex *synth.Executor, first int) {
	e := c.e
	defer func() { e.idle <- ex }()
	step := e.opts.MaxBatch
	for i := first; i < c.chunks; i = int(c.claimed.Add(1)) - 1 {
		lo, hi := i*step, min((i+1)*step, c.n)
		err := c.ctx.Err()
		if err != nil {
			e.stats.shed.Add(uint64(hi - lo))
		} else if err = c.chunk(ex, lo, hi); err != nil && c.n > 1 {
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

// chunk runs samples [lo, hi) as one kernel call on ex.
func (c *batchCall) chunk(ex *synth.Executor, lo, hi int) error {
	if c.features == nil {
		return c.e.runChunk(ex, c.inputs[lo:hi], c.outs[lo:hi], c.start)
	}
	w := 1
	if !c.classes {
		w = c.e.outputs
	}
	err := ex.RunFeatures(c.dst[lo*w:hi*w], c.features[lo:hi], c.classes)
	c.e.settle(hi-lo, c.start, err)
	return err
}

// InferBatch is Outputs for spike counts, returning positional rows. It
// stays for bench/ (ROADMAP item 1(f)).
func (e *Engine) InferBatch(ctx context.Context, inputs [][]int) ([][]int, error) {
	outs := make([][]int, len(inputs))
	if err := e.call(&batchCall{ctx: ctx, n: len(inputs), inputs: inputs, outs: outs}); err != nil {
		return nil, err
	}
	return outs, nil
}

// Outputs runs a batch of feature vectors in [0, 1] and returns every
// sample's output counts back to back, len(prog.OutputRefs) per sample;
// each chunk's executor quantizes its samples against its program's
// window Γ (synth.Executor.RunFeatures). The call runs as ⌈n/MaxBatch⌉
// chunks, one kernel pass each: it borrows one executor — waiting only
// when every one is lent out — then takes, never waiting, one more per
// further chunk from those idle right now, so a lone call still spreads
// over the pool. Once ctx ends it starts no more chunks, waits for the
// passes in flight and returns ctx's error; otherwise the error of the
// first chunk that failed, if any. Nothing of the call runs, or reads
// batch, after it returns.
func (e *Engine) Outputs(ctx context.Context, batch [][]float64) ([]int, error) {
	out := make([]int, len(batch)*e.outputs)
	if err := e.call(&batchCall{ctx: ctx, n: len(batch), features: batch, dst: out}); err != nil {
		return nil, err
	}
	return out, nil
}

// ClassifyBatch is Outputs returning each sample's argmax class (ties to
// the first maximum, as synth.Argmax), read straight out of the executors'
// output tables, so the call allocates its result and little else.
func (e *Engine) ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error) {
	classes := make([]int, len(batch))
	if err := e.call(&batchCall{ctx: ctx, n: len(batch), features: batch, dst: classes, classes: true}); err != nil {
		return nil, err
	}
	return classes, nil
}

// call admits a batch call, cuts it into chunks and spreads them over the
// executors it can borrow (see Outputs).
func (e *Engine) call(c *batchCall) error {
	if err := e.enter(); err != nil {
		return err
	}
	defer e.leave()
	if c.n == 0 {
		return nil
	}
	step := e.opts.MaxBatch
	c.e, c.start, c.chunks = e, time.Now(), (c.n+step-1)/step
	own, err := e.borrow(c.ctx, c.n)
	if err != nil {
		return err
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
	return c.err
}

// Close stops admitting calls and waits for every call already inside —
// running or still waiting for an executor — to return. Subsequent calls
// return ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	switch old := e.state.Or(closedBit); {
	case old&closedBit != 0:
		return nil
	case old == 0:
		e.drainOnce.Do(func() { close(e.drained) })
	}
	<-e.drained
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
