package main

// layers.go is the only file in this directory that imports
// fpsa/internal/...: every call the traced run times inside a layer, and
// the independent float reference, goes through the adapters below, so a
// refactor of an internal package breaks this file and not the workloads.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fpsa"
	"fpsa/internal/bitstream"
	"fpsa/internal/cgraph"
	"fpsa/internal/compilecache"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/perf"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/serve"
	"fpsa/internal/shard"
	"fpsa/internal/spike"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
	"fpsa/internal/xbar"
)

// program is a model synthesized a second time, from the same structure
// and weights the public API compiled, so the traced run can reach the
// layers below fpsa.SpikingNet. Every ladder checks that it serves the
// same outputs as the public path.
type program struct {
	p *synth.Program
	// synthMS is how long synth.Compile took to build it.
	synthMS float64
}

func compileProgram(g *cgraph.Graph, weights func(layer string) [][]float64) (*program, error) {
	opts := synth.DefaultOptions()
	opts.Weights = weights
	t0 := time.Now()
	_, p, err := synth.Compile(g, opts)
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", g.Name, err)
	}
	return &program{p: p, synthMS: ms(time.Since(t0))}, nil
}

// mlpProgram rebuilds a trained MLP's program from its layer sizes and
// the public weight source.
func mlpProgram(dims []int, weights fpsa.WeightSource) (*program, error) {
	net := &trainer.MLP{Dims: dims}
	for l := 0; l+1 < len(dims); l++ {
		net.W = append(net.W, weights(trainer.LayerName(l)))
	}
	return compileProgram(net.Graph("bench-mlp"), net.WeightSource())
}

// convProgram rebuilds the conv workload's network (see convModel) with
// the weights of its two MAC layers.
func convProgram(convW, fcW [][]float64) (*program, error) {
	g := cgraph.New("bench-conv")
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: convInC, H: convInHW, W: convInHW}})
	x = g.MustAdd("conv", cgraph.Conv2D{OutC: convOutC, Kernel: 3, Stride: 1, Pad: 1}, x)
	x = g.MustAdd("conv_relu", cgraph.ReLU{}, x)
	x = g.MustAdd("pool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, x)
	x = g.MustAdd("gap", cgraph.GlobalAvgPool{}, x)
	x = g.MustAdd("fc", cgraph.FC{Out: convClasses}, x)
	g.MustAdd("fc_relu", cgraph.ReLU{}, x)
	return compileProgram(g, func(layer string) [][]float64 {
		switch layer {
		case "conv":
			return convW
		case "fc":
			return fcW
		}
		return nil
	})
}

func (pr *program) window() int { return pr.p.Params.SamplingWindow() }

// stages is the number of core-op stages one sample walks.
func (pr *program) stages() int { return len(pr.p.Stages) }

func (pr *program) quantize(features [][]float64) [][]int {
	out := make([][]int, len(features))
	for i, f := range features {
		out[i] = synth.QuantizeInput(f, pr.window())
	}
	return out
}

// floatLabels classifies the inputs with the program's real-arithmetic
// reference — no floors, no window clamping, no spikes — which is the
// independent answer ref_agreement compares served labels with when no
// trained float model exists.
func (pr *program) floatLabels(features [][]float64) ([]int, error) {
	labels := make([]int, len(features))
	for i, in := range pr.quantize(features) {
		out, err := pr.p.FloatReference(in)
		if err != nil {
			return nil, err
		}
		labels[i] = synth.ArgmaxFloat(out)
	}
	return labels, nil
}

// execSpec says how a ladder executes its program: the public execution
// mode and, when faultRate > 0, the stuck-cell scenario of
// fpsa.WithFaultModel(faultRate, modelSeed).
type execSpec struct {
	mode      fpsa.ExecMode
	faultRate float64
}

// options lowers the spec to the executor's options. Every rung calls it
// afresh: a noisy mode's variation stream is consumed by programming, and
// each rung must draw the same variation to serve the same outputs.
func (s execSpec) options() synth.RunOptions {
	opts := synth.RunOptions{}
	switch s.mode {
	case fpsa.ModeReference:
		opts.Mode = synth.ModeReference
	case fpsa.ModeSpiking:
		opts.Mode = synth.ModeSpiking
	case fpsa.ModeSpikingNoisy:
		opts.Mode = synth.ModeSpikingNoisy
		opts.Rng = rand.New(rand.NewSource(modelSeed))
	}
	if s.faultRate > 0 {
		opts.Faults = &device.FaultModel{Rate: s.faultRate, Seed: modelSeed, Remap: true}
	}
	return opts
}

func labelsOf(outs [][]int) []int {
	labels := make([]int, len(outs))
	for i, o := range outs {
		labels[i] = synth.Argmax(o)
	}
	return labels
}

// walker is this benchmark's own stage walk over synth.Program.Stages: it
// programs each weight group's crossbar once and then, per batch, gathers
// every stage's inputs and calls the crossbar kernel — the same work as
// synth.Executor.RunBatch, but with a span around every kernel call, so
// the kernel's time is measured apart from the executor's.
type walker struct {
	p     *synth.Program
	mode  synth.ExecMode
	units map[int]*xbar.Crossbar
	cols  []int
	ins   [][]int
	outs  [][]int
	// programUS is the mean time of one xbar.Program call.
	programUS float64
}

func newWalker(pr *program, opts synth.RunOptions) (*walker, error) {
	p := pr.p
	spec := device.Cell4Bit
	if opts.Mode != synth.ModeSpikingNoisy {
		spec.Sigma = 0
	}
	cfg := xbar.Config{Params: p.Params, Spec: spec, Rep: device.NewAdd(spec, p.Params.CellsPerWeight)}
	w := &walker{p: p, mode: opts.Mode, units: make(map[int]*xbar.Crossbar), cols: make([]int, len(p.Stages)),
		ins: make([][]int, len(p.Stages)), outs: make([][]int, len(p.Stages))}
	var programNS time.Duration
	for si, st := range p.Stages {
		grp := p.Graph.Groups[st.GroupID]
		w.cols[si] = grp.Cols
		if _, ok := w.units[st.GroupID]; ok {
			continue
		}
		c := cfg
		c.Eta = grp.Eta
		if opts.Faults.Active() {
			m := opts.Faults.MapForUnit(grp.Layer, st.GroupID, p.Params.CrossbarRows, p.Params.LogicalColumns())
			mask := m.MaskFor(grp.Rows, grp.Cols, opts.Faults.Remap)
			c.Faults = &mask
		}
		t0 := time.Now()
		u, err := xbar.Program(c, grp.Weights, opts.Rng)
		programNS += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("programming stage %d: %w", si, err)
		}
		w.units[st.GroupID] = u
	}
	w.programUS = float64(programNS) / 1e3 / float64(len(w.units))
	return w, nil
}

func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func (w *walker) runBatch(tr *tracer, parent int, inputs [][]int) ([][]int, error) {
	B := len(inputs)
	for si, st := range w.p.Stages {
		n := len(st.InRefs)
		x := resize(w.ins[si], B*n)
		w.ins[si] = x
		for b, in := range inputs {
			row := x[b*n : (b+1)*n]
			for r, ref := range st.InRefs {
				switch ref.Stage {
				case synth.ExternalStage:
					row[r] = in[ref.Col]
				case synth.ZeroStage:
					row[r] = 0
				default:
					row[r] = w.outs[ref.Stage][b*w.cols[ref.Stage]+ref.Col]
				}
			}
		}
		out := resize(w.outs[si], B*w.cols[si])
		w.outs[si] = out
		unit := w.units[st.GroupID]
		id := tr.begin("xbar.kernel", parent, 0, B)
		var err error
		if w.mode == synth.ModeReference {
			err = unit.ReferenceBatch(out, x, B)
		} else {
			err = unit.SimulateCountsBatch(out, x, B)
		}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", si, err)
		}
	}
	results := make([][]int, B)
	for b := range results {
		res := make([]int, len(w.p.OutputRefs))
		for i, ref := range w.p.OutputRefs {
			if ref.Stage == synth.ExternalStage {
				res[i] = inputs[b][ref.Col]
				continue
			}
			res[i] = w.outs[ref.Stage][b*w.cols[ref.Stage]+ref.Col]
		}
		results[b] = res
	}
	return results, nil
}

// kernelFacts are what the bottom rung learned about the crossbar kernels.
type kernelFacts struct {
	// KernelUSPerSample is kernel-call time alone per sample; the rung's
	// USPerSample also holds this benchmark's own gather loop.
	KernelUSPerSample float64
	// NSPerSimCycle is host nanoseconds per simulated crossbar cycle: each
	// stage of each sample simulates one sampling window of cycles.
	NSPerSimCycle float64
	ProgramUS     float64
	// Path counts and density over the fixed verification pass; they
	// repeat exactly for a seed.
	SparseKernels, DenseKernels uint64
	SpikeDensity                float64
	FaultedCells                int
}

// walkRung is the bottom rung: the kernels alone.
func walkRung(tr *tracer, parent int, pr *program, spec execSpec, inputs [][]int, verify, batch int, budget time.Duration) (rung, kernelFacts, error) {
	w, err := newWalker(pr, spec.options())
	if err != nil {
		return rung{}, kernelFacts{}, err
	}
	facts := kernelFacts{ProgramUS: w.programUS}
	outs, err := w.runBatch(nil, 0, inputs[:verify])
	if err != nil {
		return rung{}, facts, err
	}
	var ks xbar.KernelStats
	for _, u := range w.units { //fpsa:nondet summing counters; order-free
		ks = ks.Add(u.KernelStats())
		facts.FaultedCells += u.FaultedCells()
	}
	facts.SparseKernels, facts.DenseKernels, facts.SpikeDensity = ks.SparseBatches, ks.DenseBatches, ks.Density()
	before := tr.count()
	r, err := timeBatches(tr, parent, "bench.stage_walk", len(inputs), batch, budget, func(lo, hi, id int) error {
		_, err := w.runBatch(tr, id, inputs[lo:hi])
		return err
	})
	if err != nil {
		return r, facts, err
	}
	r.Name = "xbar"
	r.Outputs = labelsOf(outs)
	ns, items, _ := sumByName(tr.snapshot()[before:], "xbar.kernel")
	if items > 0 {
		// items counts samples once per stage call.
		facts.KernelUSPerSample = float64(ns) / 1e3 / (float64(items) / float64(pr.stages()))
		facts.NSPerSimCycle = float64(ns) / (float64(items) * float64(pr.window()))
	}
	return r, facts, nil
}

// executorRung times synth.Executor.RunBatch at one batch size; newMS is
// how long synth.NewExecutor took.
func executorRung(tr *tracer, parent int, pr *program, spec execSpec, inputs [][]int, verify, batch int, budget time.Duration) (r rung, newMS float64, err error) {
	t0 := time.Now()
	ex, err := synth.NewExecutor(pr.p, spec.options())
	newMS = ms(time.Since(t0))
	if err != nil {
		return rung{}, newMS, err
	}
	outs, err := ex.RunBatch(inputs[:verify])
	if err != nil {
		return rung{}, newMS, err
	}
	r, err = timeBatches(tr, parent, "synth.Executor.RunBatch", len(inputs), batch, budget, func(lo, hi, _ int) error {
		_, err := ex.RunBatch(inputs[lo:hi])
		return err
	})
	r.Name, r.Outputs = "synth.executor", labelsOf(outs)
	return r, newMS, err
}

// executorAllocs counts the heap allocations and bytes of one
// synth.Executor.RunBatch call on a warm executor.
func executorAllocs(pr *program, spec execSpec, inputs [][]int, batch int) (allocs, bytes float64, err error) {
	ex, err := synth.NewExecutor(pr.p, spec.options())
	if err != nil {
		return 0, 0, err
	}
	if _, err := ex.RunBatch(inputs[:batch]); err != nil {
		return 0, 0, err
	}
	const calls = 8
	allocs, bytes = allocsPer(calls, func() {
		for i := 0; i < calls; i++ {
			_, _ = ex.RunBatch(inputs[:batch]) // the same call just succeeded; here only its allocations count
		}
	})
	return allocs, bytes, nil
}

// pipelineRung times the 2-chip synth.PipelineExecutor with two callers
// feeding it, which is how the pipeline overlaps its chips. partitionUS is
// the time of the stage partition itself.
func pipelineRung(tr *tracer, parent int, pr *program, spec execSpec, inputs [][]int, verify, batch int, budget time.Duration) (r rung, partitionUS float64, err error) {
	t0 := time.Now()
	plan, err := pr.p.PartitionStages(2, shard.PolicyBalanced)
	partitionUS = float64(time.Since(t0)) / 1e3
	if err != nil {
		return rung{}, partitionUS, err
	}
	pe, err := synth.NewPipelineExecutor(pr.p, plan, spec.options())
	if err != nil {
		return rung{}, partitionUS, err
	}
	defer pe.Close()
	outs, err := pe.RunBatch(inputs[:verify])
	if err != nil {
		return rung{}, partitionUS, err
	}
	const feeders = 2
	rungs := make([]rung, feeders)
	errs := make([]error, feeders)
	var wg sync.WaitGroup
	start := time.Now()
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rungs[f], errs[f] = timeBatches(tr, parent, "synth.PipelineExecutor.RunBatch", len(inputs), batch, budget, func(lo, hi, _ int) error {
				_, err := pe.RunBatch(inputs[lo:hi])
				return err
			})
		}(f)
	}
	wg.Wait()
	wall := time.Since(start)
	samples := 0
	for f := range rungs {
		if errs[f] != nil {
			return rung{}, partitionUS, errs[f]
		}
		samples += rungs[f].Batches * batch
	}
	r = rung{Name: "synth.pipeline2", Batches: rungs[0].Batches + rungs[1].Batches, BatchMS: (rungs[0].BatchMS + rungs[1].BatchMS) / 2, Outputs: labelsOf(outs)}
	r.USPerSample = float64(wall) / 1e3 / float64(samples)
	return r, partitionUS, nil
}

// serveFacts are what the serve rung learned beyond its timing.
type serveFacts struct {
	MeanExecBatch    float64
	ExecBatches      float64
	AllocsPerRequest float64
	LoneRequestMS    float64
}

// serveRung times internal/serve.Engine.InferBatch from one caller, the
// engine shaped with the worker count and flush size the library's own
// default engine reports.
func serveRung(ctx context.Context, tr *tracer, parent int, pr *program, spec execSpec, workers, maxBatch, chips int, inputs [][]int, verify, batch int, budget time.Duration) (rung, serveFacts, error) {
	opts := spec.options()
	eng, err := serve.New(pr.p, serve.Options{Workers: workers, MaxBatch: maxBatch, Chips: chips, Mode: opts.Mode, Seed: modelSeed, Faults: opts.Faults})
	if err != nil {
		return rung{}, serveFacts{}, err
	}
	defer eng.Close()
	outs, err := eng.InferBatch(ctx, inputs[:verify])
	if err != nil {
		return rung{}, serveFacts{}, err
	}
	r, err := timeBatches(tr, parent, "serve.Engine.InferBatch", len(inputs), batch, budget, func(lo, hi, _ int) error {
		_, err := eng.InferBatch(ctx, inputs[lo:hi])
		return err
	})
	if err != nil {
		return r, serveFacts{}, err
	}
	r.Name = "serve.engine"
	r.Outputs = labelsOf(outs)
	st := eng.Stats()
	facts := serveFacts{MeanExecBatch: st.MeanExecBatch, ExecBatches: float64(st.ExecBatches)}
	const allocCalls = 8
	facts.AllocsPerRequest, _ = allocsPer(allocCalls*batch, func() {
		for i := 0; i < allocCalls; i++ {
			_, _ = eng.InferBatch(ctx, inputs[:batch]) // timed and checked above; here only its allocations count
		}
	})
	// One request in flight at a time: nothing fills its micro-batch, so
	// each waits out the flush interval.
	lone := make([]float64, 0, 21)
	for i := 0; i < cap(lone); i++ {
		t0 := time.Now()
		if _, err := eng.Infer(ctx, inputs[i%len(inputs)]); err != nil {
			return r, facts, err
		}
		lone = append(lone, ms(time.Since(t0)))
	}
	facts.LoneRequestMS = summarize(lone).Median
	return r, facts, nil
}

// compileFacts are the deterministic results of the traced compile; the
// traced run checks them against the public API's numbers for the same
// design.
type compileFacts struct {
	PEs             int
	Moves           int
	WirelengthCost  float64
	Iterations      int
	MeanHops        float64
	ChannelsNeeded  int
	ProgrammedCells int
	SimLatencyUS    float64
}

// compileStages compiles LeNet at duplication 4 by calling each compiler
// stage's exported function directly, one span per stage under parent. It
// mirrors fpsa.Compile followed by PlaceAndRoute, Bitstream and
// PerformanceWithHops with the same seed and a portfolio of two.
func compileStages(ctx context.Context, tr *tracer, parent int, seed int64) (compileFacts, *compilecache.Artifacts, error) {
	var facts compileFacts
	g := models.LeNet()
	params := device.Params45nm
	stage := func(name string, f func() error) error {
		id := tr.begin(name, parent, 0, 0)
		err := f()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var (
		co    *coreop.Graph
		nl    *netlist.Netlist
		alloc mapper.Allocation
		chip  fabric.Chip
		pl    *place.Placement
		res   *route.Result
		cfg   *bitstream.Config
		pst   place.PortfolioStats
	)
	if err := stage("synth.Synthesize", func() (err error) {
		co, err = synth.Synthesize(g, synth.Options{Params: params})
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("mapper.AllocateAssigned", func() (err error) {
		alloc, err = mapper.AllocateAssigned(co, compileDup, nil)
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("mapper.BuildNetlistFaulted", func() (err error) {
		nl, err = mapper.BuildNetlistFaulted(co, alloc, params, nil, nil, 0)
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("fabric.SizeFor", func() (err error) {
		chip, err = fabric.SizeFor(len(nl.Blocks), 0, params)
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("place.Portfolio", func() (err error) {
		pl, pst, err = place.Portfolio(ctx, nl, chip, seed+1, place.PortfolioOptions{Runs: compileSeeds})
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("route.Route", func() (err error) {
		res, err = route.Route(ctx, nl, pl, chip, route.Options{})
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("bitstream.Generate", func() (err error) {
		cfg, err = bitstream.Generate(nl, pl, res, chip)
		return err
	}); err != nil {
		return facts, nil, err
	}
	if err := stage("bitstream.Verify", func() error { return cfg.Verify(nl) }); err != nil {
		return facts, nil, err
	}
	var rep perf.Report
	if err := stage("perf.Evaluate", func() (err error) {
		rep, err = perf.Evaluate(perf.Input{Model: g, CoreOps: co, Params: params, Dup: compileDup, Assign: alloc.Dup,
			Hops: int(math.Round(res.MeanHops()))}, perf.TargetFPSA)
		return err
	}); err != nil {
		return facts, nil, err
	}
	facts = compileFacts{PEs: alloc.TotalPEs, Moves: pst.TotalMoves, WirelengthCost: pst.Best().FinalCost, Iterations: res.Iterations,
		MeanHops: res.MeanHops(), ChannelsNeeded: res.MaxOccupancy, ProgrammedCells: cfg.CellCount(), SimLatencyUS: rep.LatencyUS}
	art := &compilecache.Artifacts{Chip: chip, Placement: pl, Route: res, PlacementMoves: pst.TotalMoves,
		WirelengthCost: pst.Best().FinalCost, Restarts: len(pst.Runs)}
	return facts, art, nil
}

// cacheHitUS is the median time of one compilecache hit on an entry
// holding art.
func cacheHitUS(ctx context.Context, art *compilecache.Artifacts) (float64, error) {
	c := compilecache.New(0)
	key := compilecache.KeyFrom(models.LeNet().Fingerprint(), "bench")
	compute := func() (*compilecache.Artifacts, error) { return art, nil }
	if _, _, err := c.GetOrComputeCtx(ctx, key, compute); err != nil {
		return 0, err
	}
	return medianNS(2000, func() error {
		_, hit, err := c.GetOrComputeCtx(ctx, key, compute)
		if err == nil && !hit {
			err = fmt.Errorf("compilecache: warm lookup missed")
		}
		return err
	}, 1e3)
}

// trainMS is the median time to train the workloads' MLP the way
// fpsa.TrainMLP does.
func trainMS(seed int64, dims []int, ds fpsa.Dataset, epochs, reps int) (float64, error) {
	return medianNS(reps, func() error {
		rng := rand.New(rand.NewSource(seed))
		net, err := trainer.NewMLP(rng, dims)
		if err != nil {
			return err
		}
		net.Train(rng, trainer.Dataset{X: ds.X, Y: ds.Y, Classes: ds.Classes}, trainer.TrainOptions{Epochs: epochs})
		return nil
	}, 1e6)
}

// quantizeNSPerSample is the cost of the public wrappers' input
// quantization, per sample.
func quantizeNSPerSample(pr *program, features [][]float64) float64 {
	v, _ := medianNS(50, func() error {
		pr.quantize(features)
		return nil
	}, float64(len(features)))
	return v
}

// packNSPerTrain is the cost of building one bit-packed uniform spike
// train, over the spike counts the quantized inputs hold.
func packNSPerTrain(pr *program, inputs [][]int) float64 {
	window := pr.window()
	dst := make([]uint64, spike.Lanes(window))
	trains := 0
	for _, in := range inputs {
		trains += len(in)
	}
	v, _ := medianNS(20, func() error {
		for _, in := range inputs {
			for _, count := range in {
				for i := range dst {
					dst[i] = 0
				}
				spike.AppendUniform(dst, count, window, 0, 1)
			}
		}
		return nil
	}, float64(trains))
	return v
}
