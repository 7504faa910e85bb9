package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fpsa"
)

// rung is one step of a layer ladder: the same inputs pushed through one
// more layer of the stack than the rung below.
type rung struct {
	Name string
	// USPerSample is the median over the timed batches of batch duration
	// over batch size; BatchMS the median batch duration.
	USPerSample float64
	BatchMS     float64
	Batches     int
	// Outputs are the labels of the fixed verification pass, which must
	// agree between rungs.
	Outputs []int
}

// timeBatches runs do over the inputs in batches, cycling, until budget
// has passed and at least three batches ran, and fills the rung's timing
// from the per-batch durations. Each batch is one span under parent.
func timeBatches(tr *tracer, parent int, name string, n, batch int, budget time.Duration, do func(lo, hi, spanID int) error) (rung, error) {
	r := rung{Name: name}
	var durs []float64
	t0 := time.Now()
	for lo := 0; time.Since(t0) < budget || len(durs) < 3; lo = (lo + batch) % n {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		id := tr.begin(name, parent, len(durs)+1, hi-lo)
		start := time.Now()
		err := do(lo, hi, id)
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		durs = append(durs, float64(d)/float64(hi-lo))
	}
	med := summarize(durs).Median
	r.USPerSample = med / 1e3
	r.BatchMS = med * float64(batch) / 1e6
	r.Batches = len(durs)
	return r, nil
}

// allocsPer runs f once and returns heap allocations and bytes per unit,
// where f does units units of work.
func allocsPer(units int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(units), float64(after.TotalAlloc-before.TotalAlloc) / float64(units)
}

// medianOf calls f reps times and returns the median of what it returns.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vals := make([]float64, reps)
	for i := range vals {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return summarize(vals).Median, nil
}

// medianNS times f reps times and returns the median duration divided by
// per (1e3 for microseconds, 1e6 for milliseconds, 1 for nanoseconds).
func medianNS(reps int, f func() error, per float64) (float64, error) {
	return medianOf(reps, func() (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0)) / per, err
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const (
	// ladderInputs is the size of the fixed input set every ladder cycles.
	ladderInputs = 1024
	// ladderVerify is how many of them the fixed verification pass of each
	// rung serves; its outputs must agree between rungs and its counts
	// repeat exactly.
	ladderVerify = 64
)

// rungBudget is how long each rung is timed for.
var rungBudget = 250 * time.Millisecond

// fixture is one workload's model set up for its layer ladder: the public
// deployment, the same model synthesized again for the rungs below the
// public API, and 1024 inputs of the workload's kind.
type fixture struct {
	workload string
	model    fpsa.Model
	weights  fpsa.WeightSource
	options  []fpsa.Option
	dep      *fpsa.Deployment
	pr       *program
	spec     execSpec
	batch    int
	inputs   [][]float64
}

func newFixture(ctx context.Context, workload string, seed int64) (*fixture, error) {
	fx := &fixture{workload: workload}
	rng := rand.New(rand.NewSource(seed))
	_, heldOut := mlpData()
	var err error
	switch workload {
	case wlConv:
		m, weights, err := convModel()
		if err != nil {
			return nil, err
		}
		fx.model, fx.weights = m, func(layer string) [][]float64 { return weights[layer] }
		fx.spec, fx.batch = execSpec{mode: fpsa.ModeSpiking}, 16
		fx.inputs = imageInputs(rng, ladderInputs)
		if fx.pr, err = convModelProgram(m, weights); err != nil {
			return nil, err
		}
	case wlServe, wlNoisy:
		net, err := trainedMLP(modelSeed, mlpDims)
		if err != nil {
			return nil, err
		}
		fx.model, fx.weights = net.Model(), net.WeightSource()
		fx.spec, fx.batch = execSpec{mode: fpsa.ModeReference}, 64
		fx.inputs = clusterInputs(rng, ladderInputs, heldOut.X)
		if workload == wlNoisy {
			fx.spec = execSpec{mode: fpsa.ModeSpikingNoisy, faultRate: noisyFaultRate}
			fx.options = []fpsa.Option{fpsa.WithFaultModel(noisyFaultRate, modelSeed)}
			fx.inputs = sparseInputs(rng, ladderInputs, mlpDims[0], noisyDensity)
		}
		if fx.pr, err = mlpProgram(mlpDims, fx.weights); err != nil {
			return nil, err
		}
	case wlFleet:
		// The sharded model: its ladder has the real 2-chip pipeline.
		net, err := trainedMLP(modelSeed+1, shardDims)
		if err != nil {
			return nil, err
		}
		fx.model, fx.weights = net.Model(), net.WeightSource()
		fx.options = []fpsa.Option{fpsa.WithChips(2)}
		fx.spec, fx.batch = execSpec{mode: fpsa.ModeSpiking}, 8
		fx.inputs = clusterInputs(rng, ladderInputs, heldOut.X)
		if fx.pr, err = mlpProgram(shardDims, fx.weights); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no ladder fixture for %s", workload)
	}
	opts := append([]fpsa.Option{fpsa.WithWeightSource(fx.weights), fpsa.WithSeed(modelSeed)}, fx.options...)
	fx.dep, err = fpsa.Compile(ctx, fx.model, opts...)
	return fx, err
}

// ladderRow is one rung of one fixture's ladder as reported.
type ladderRow struct {
	Fixture     string  `json:"fixture"`
	Rung        string  `json:"rung"`
	Batch       int     `json:"batch"`
	USPerSample float64 `json:"us_per_sample"`
	// SelfUS is the rung's cost over the rung below: what the layer adds.
	// It is negative where a layer's parallelism outweighs its overhead.
	SelfUS  float64 `json:"self_us_per_sample"`
	Batches int     `json:"batches"`
}

// ladder is everything one fixture's ladder measured.
type ladder struct {
	rungs     []rung
	kernel    kernelFacts
	newExecMS float64
	serve     serveFacts
	partition float64
	// engineAllocs and engineBytes are per sample through the public
	// engine; swapMS is one CompileAndSwap on the ladder's fleet.
	engineAllocs, engineBytes float64
	swapMS                    float64
}

func (l *ladder) rung(name string) rung {
	for _, r := range l.rungs {
		if r.Name == name {
			return r
		}
	}
	return rung{}
}

// climb runs the fixture's ladder: the kernels alone, the executor, the
// 2-chip pipeline, the internal engine, the public engine, and a fleet
// serving only this model. Every rung serves the same verification pass.
func (fx *fixture) climb(ctx context.Context, tr *tracer, r *result) (*ladder, error) {
	l := &ladder{}
	root := tr.begin("ladder."+fx.workload, 0, 0, 0)
	defer tr.end(root)
	in := fx.pr.quantize(fx.inputs)
	step := func(name string, f func(parent int) (rung, error)) error {
		id := tr.begin("rung."+name, root, 0, 0)
		rg, err := f(id)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s ladder, rung %s: %w", fx.workload, name, err)
		}
		l.rungs = append(l.rungs, rg)
		return nil
	}
	if err := step("xbar", func(p int) (rg rung, err error) {
		rg, l.kernel, err = walkRung(tr, p, fx.pr, fx.spec, in, ladderVerify, fx.batch, rungBudget)
		return rg, err
	}); err != nil {
		return nil, err
	}
	if err := step("synth.executor", func(p int) (rg rung, err error) {
		rg, l.newExecMS, err = executorRung(tr, p, fx.pr, fx.spec, in, ladderVerify, fx.batch, rungBudget)
		return rg, err
	}); err != nil {
		return nil, err
	}
	if err := step("synth.pipeline2", func(p int) (rg rung, err error) {
		rg, l.partition, err = pipelineRung(tr, p, fx.pr, fx.spec, in, ladderVerify, fx.batch, rungBudget)
		return rg, err
	}); err != nil {
		return nil, err
	}

	// The public engine's stats say which worker count and flush size the
	// library defaults to; the internal rung copies them.
	eng, err := fx.dep.NewEngine(ctx, fpsa.WithMode(fx.spec.mode))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	shape := eng.Stats()
	if err := step("serve.engine", func(p int) (rg rung, err error) {
		rg, l.serve, err = serveRung(ctx, tr, p, fx.pr, fx.spec, shape.Workers, shape.MaxBatch, shape.Chips, in, ladderVerify, fx.batch, rungBudget)
		return rg, err
	}); err != nil {
		return nil, err
	}
	if err := step("fpsa.engine", func(p int) (rung, error) {
		labels, err := eng.ClassifyBatch(ctx, fx.inputs[:ladderVerify])
		if err != nil {
			return rung{}, err
		}
		rg, err := timeBatches(tr, p, "fpsa.Engine.ClassifyBatch", len(fx.inputs), fx.batch, rungBudget, func(lo, hi, _ int) error {
			_, err := eng.ClassifyBatch(ctx, fx.inputs[lo:hi])
			return err
		})
		rg.Name, rg.Outputs = "fpsa.engine", labels
		return rg, err
	}); err != nil {
		return nil, err
	}
	const allocCalls = 8
	l.engineAllocs, l.engineBytes = allocsPer(allocCalls*fx.batch, func() {
		for i := 0; i < allocCalls; i++ {
			_, _ = eng.ClassifyBatch(ctx, fx.inputs[:fx.batch]) // timed and checked above; here only its allocations count
		}
	})
	if err := step("fleet", func(p int) (rung, error) { return fx.fleetRung(ctx, tr, p, l) }); err != nil {
		return nil, err
	}

	// The rungs must agree on the verification pass. In a noisy mode every
	// engine worker draws its own programming variation, so only the rungs
	// that share one draw are comparable.
	comparable := len(l.rungs)
	if fx.spec.mode == fpsa.ModeSpikingNoisy {
		comparable = 3
	}
	for _, rg := range l.rungs[1:comparable] {
		for i, want := range l.rungs[0].Outputs {
			if rg.Outputs[i] != want {
				r.Failed++
				r.problemf("%s ladder: rung %s labels input %d as %d, rung xbar as %d", fx.workload, rg.Name, i, rg.Outputs[i], want)
				break
			}
		}
	}
	for i, rg := range l.rungs {
		row := ladderRow{Fixture: fx.workload, Rung: rg.Name, Batch: fx.batch, USPerSample: rg.USPerSample, Batches: rg.Batches}
		if i == 0 {
			row.USPerSample, row.SelfUS = l.kernel.KernelUSPerSample, l.kernel.KernelUSPerSample
		} else if i == 1 {
			row.SelfUS = rg.USPerSample - l.kernel.KernelUSPerSample
		} else {
			row.SelfUS = rg.USPerSample - l.rungs[i-1].USPerSample
		}
		r.Ladders = append(r.Ladders, row)
	}
	return l, nil
}

// fleetRung serves the fixture's model alone on a fleet shaped like the
// fleet workload's, one batch worth of single requests in flight at a
// time, and then hot-swaps the same weights in once.
func (fx *fixture) fleetRung(ctx context.Context, tr *tracer, parent int, l *ladder) (rung, error) {
	f, err := fpsa.NewFleet(fpsa.WithFleetChips(fleetChips), fpsa.WithTenant("gold", fpsa.QoSGold, 0))
	if err != nil {
		return rung{}, err
	}
	defer f.Close()
	if err := f.AddModel(ctx, "m", fx.dep, fpsa.WithModelReplicas(fleetReplicas), fpsa.WithModelReplicaRange(1, fleetMaxRepl),
		fpsa.WithModelEngine(fpsa.WithMode(fx.spec.mode))); err != nil {
		return rung{}, err
	}
	burst := func(lo, hi int, labels []int) error {
		errs := make([]error, hi-lo)
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, _, err := f.Outputs(ctx, "m", "gold", fx.inputs[i])
				if err == nil && labels != nil {
					labels[i-lo] = argmax(out)
				}
				errs[i-lo] = err
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	labels := make([]int, ladderVerify)
	for lo := 0; lo < ladderVerify; lo += fx.batch {
		if err := burst(lo, lo+fx.batch, labels[lo:lo+fx.batch]); err != nil {
			return rung{}, err
		}
	}
	rg, err := timeBatches(tr, parent, "fpsa.Fleet.Outputs", len(fx.inputs), fx.batch, rungBudget, func(lo, hi, _ int) error {
		return burst(lo, hi, nil)
	})
	if err != nil {
		return rg, err
	}
	rg.Name, rg.Outputs = "fleet", labels
	t0 := time.Now()
	opts := append([]fpsa.Option{fpsa.WithWeightSource(fx.weights), fpsa.WithSeed(modelSeed)}, fx.options...)
	if _, _, err := f.CompileAndSwap(ctx, "m", fx.model, opts...); err != nil {
		return rg, fmt.Errorf("swap: %w", err)
	}
	l.swapMS = ms(time.Since(t0))
	return rg, nil
}

// runTraced is the per-layer run: the workload's own loop with client-side
// spans off and on, the four layer ladders, the compile stages, and the
// single probes. It never reports end-to-end numbers.
func runTraced(ctx context.Context, name string, cfg runConfig, bf *benchmarkFile, spansPath string) (*result, error) {
	tr := newTracer()
	r := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: true}
	vals := make(map[string]float64)

	// The workload's loop, a quarter of the run's length each way. The
	// difference in throughput is what the client-side spans cost.
	quarter := runConfig{seed: cfg.seed, seconds: cfg.seconds / 4, setups: 1}
	off, err := runners[name](ctx, quarter, bf)
	if err != nil {
		return nil, err
	}
	quarter.tr = tr
	on, err := runners[name](ctx, quarter, bf)
	if err != nil {
		return nil, err
	}
	for _, e := range []*result{off, on} {
		r.Attempted += e.Attempted
		r.Failed += e.Failed
		r.Problems = append(r.Problems, e.Problems...)
	}
	r.Digest = off.Digest
	thrOff, _ := off.row("throughput_sps")
	thrOn, _ := on.row("throughput_sps")
	if thrOff.Value > 0 {
		vals["loadgen.trace_overhead_share"] = (thrOff.Value - thrOn.Value) / thrOff.Value
	}
	// 0 when the quarter-length loop was too short to have quartiles (two
	// compile_zoo rounds).
	vals["loadgen.segments_iqr_share"] = 0
	if thrOff.N >= 4 && thrOff.Value > 0 {
		vals["loadgen.segments_iqr_share"] = (thrOff.Q3 - thrOff.Q1) / thrOff.Value
	}
	// Facts only the workload's own loop knows; zero on a workload that
	// has no fleet or no open loop.
	for _, own := range []string{"loadgen.late_p99_ms", "fleet.shed_overload", "fleet.shed_quota", "fleet.scale_ups", "fleet.scale_downs", "fleet.replicas_end"} {
		vals[own] = off.Own[own]
	}

	// The ladders.
	ladders := make(map[string]*ladder)
	fixtures := make(map[string]*fixture)
	for _, w := range runtimeWorkloads {
		fx, err := newFixture(ctx, w, cfg.seed)
		if err != nil {
			return nil, err
		}
		l, err := fx.climb(ctx, tr, r)
		if err != nil {
			return nil, err
		}
		fixtures[w], ladders[w] = fx, l
	}
	conv, serve, noisy, shard := ladders[wlConv], ladders[wlServe], ladders[wlNoisy], ladders[wlFleet]
	vals["xbar.spiking_us_per_sample"] = conv.kernel.KernelUSPerSample
	vals["xbar.host_ns_per_sim_cycle"] = conv.kernel.NSPerSimCycle
	vals["xbar.reference_us_per_sample"] = serve.kernel.KernelUSPerSample
	vals["xbar.noisy_us_per_sample"] = noisy.kernel.KernelUSPerSample
	vals["xbar.program_us"] = noisy.kernel.ProgramUS
	vals["device.faulted_cells"] = float64(noisy.kernel.FaultedCells)
	// Kernel path selection on the traced workload's own model; a workload
	// that runs no kernel reads zero.
	if own, ok := ladders[name]; ok {
		vals["xbar.sparse_kernels"] = float64(own.kernel.SparseKernels)
		vals["xbar.dense_kernels"] = float64(own.kernel.DenseKernels)
		vals["xbar.spike_density"] = own.kernel.SpikeDensity
	} else {
		vals["xbar.sparse_kernels"], vals["xbar.dense_kernels"], vals["xbar.spike_density"] = 0, 0, 0
	}
	vals["synth.runbatch_us_per_sample_b16"] = conv.rung("synth.executor").USPerSample
	vals["synth.self_us_per_sample"] = conv.rung("synth.executor").USPerSample - conv.kernel.KernelUSPerSample
	vals["synth.new_executor_ms"] = conv.newExecMS
	vals["synth.compile_ms"] = fixtures[wlConv].pr.synthMS
	convIn := fixtures[wlConv].pr.quantize(fixtures[wlConv].inputs)
	if vals["synth.allocs_per_batch"], vals["synth.bytes_per_batch"], err = executorAllocs(fixtures[wlConv].pr, fixtures[wlConv].spec, convIn, fixtures[wlConv].batch); err != nil {
		return nil, err
	}
	for _, b := range []int{1, 64} {
		rg, _, err := executorRung(tr, 0, fixtures[wlConv].pr, fixtures[wlConv].spec, convIn, ladderVerify, b, rungBudget)
		if err != nil {
			return nil, err
		}
		vals[fmt.Sprintf("synth.runbatch_us_per_sample_b%d", b)] = rg.USPerSample
	}
	vals["spike.pack_ns_per_train"] = packNSPerTrain(fixtures[wlConv].pr, convIn[:ladderVerify])
	vals["synth.pipeline2_us_per_sample"] = shard.rung("synth.pipeline2").USPerSample
	vals["synth.pipeline2_batch_ms"] = shard.rung("synth.pipeline2").BatchMS
	vals["shard.partition_us"] = shard.partition
	vals["serve.us_per_sample"] = serve.rung("serve.engine").USPerSample
	vals["serve.self_us_per_sample"] = serve.rung("serve.engine").USPerSample - serve.rung("synth.executor").USPerSample
	vals["serve.mean_exec_batch"] = serve.serve.MeanExecBatch
	vals["serve.exec_batches"] = serve.serve.ExecBatches
	vals["serve.allocs_per_request"] = serve.serve.AllocsPerRequest
	vals["serve.lone_request_ms"] = serve.serve.LoneRequestMS
	vals["fleet.us_per_request"] = shard.rung("fleet").USPerSample
	vals["fleet.self_us_per_request"] = shard.rung("fleet").USPerSample - shard.rung("fpsa.engine").USPerSample
	vals["fleet.swap_ms"] = shard.swapMS
	vals["fpsa.quantize_ns_per_sample"] = quantizeNSPerSample(fixtures[wlServe].pr, fixtures[wlServe].inputs)
	vals["fpsa.allocs_per_sample"] = serve.engineAllocs
	vals["fpsa.bytes_per_sample"] = serve.engineBytes

	if err := setupProbes(ctx, fixtures[wlServe], vals); err != nil {
		return nil, err
	}
	if err := compileProbes(ctx, tr, r, vals); err != nil {
		return nil, err
	}

	for _, def := range perLayer {
		v, ok := vals[def.Name]
		if !ok {
			r.problemf("per-layer metric %s was not measured", def.Name)
		}
		r.addValue(def, v)
	}
	r.SpanTotals = spanTotals(tr.snapshot())
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", tr.count(), spansPath)
	return r, nil
}

// setupProbes times the pieces of set-up one at a time on the serve
// workload's MLP.
func setupProbes(ctx context.Context, fx *fixture, vals map[string]float64) error {
	train, _ := mlpData()
	var err error
	if vals["trainer.train_ms"], err = trainMS(modelSeed, mlpDims, train, mlpEpochs, 5); err != nil {
		return err
	}
	if vals["fpsa.new_net_ms"], err = medianOf(5, func() (float64, error) {
		d, err := fpsa.Compile(ctx, fx.model, fpsa.WithWeightSource(fx.weights))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = d.NewNet(nil)
		return ms(time.Since(t0)), err
	}); err != nil {
		return err
	}
	vals["fpsa.new_engine_ms"], err = medianOf(5, func() (float64, error) {
		t0 := time.Now()
		eng, err := fx.dep.NewEngine(ctx, fpsa.WithMode(fx.spec.mode))
		if err != nil {
			return 0, err
		}
		d := ms(time.Since(t0))
		return d, eng.Close()
	})
	return err
}

// compileProbes compiles LeNet at duplication 4 stage by stage under
// spans, checks the stages' results against the public API's for the same
// design, exercises the compile cache, and runs the autotuner once.
func compileProbes(ctx context.Context, tr *tracer, r *result, vals map[string]float64) error {
	root := tr.begin("compile.LeNet", 0, 0, 0)
	facts, art, err := compileStages(ctx, tr, root, modelSeed)
	tr.end(root)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	stageMS := func(name string) float64 {
		ns, _, _ := sumByName(spans, name)
		return float64(ns) / 1e6
	}
	vals["synth.synthesize_ms"] = stageMS("synth.Synthesize")
	vals["mapper.allocate_ms"] = stageMS("mapper.AllocateAssigned")
	vals["mapper.netlist_ms"] = stageMS("mapper.BuildNetlistFaulted")
	vals["place.portfolio_ms"] = stageMS("place.Portfolio")
	vals["route.route_ms"] = stageMS("route.Route")
	vals["bitstream.generate_ms"] = stageMS("bitstream.Generate")
	vals["bitstream.verify_ms"] = stageMS("bitstream.Verify")
	vals["perf.evaluate_us"] = stageMS("perf.Evaluate") * 1e3
	vals["mapper.pes"] = float64(facts.PEs)
	vals["place.moves"] = float64(facts.Moves)
	vals["place.wirelength_cost"] = facts.WirelengthCost
	vals["route.iterations"] = float64(facts.Iterations)
	vals["route.mean_hops"] = facts.MeanHops
	vals["route.channels_needed"] = float64(facts.ChannelsNeeded)
	vals["bitstream.programmed_cells"] = float64(facts.ProgrammedCells)
	if vals["compilecache.hit_us"], err = cacheHitUS(ctx, art); err != nil {
		return err
	}

	// The same design through the public API, cold then warm, then the
	// 2-chip MLP the same way: the stage walk above must have computed what
	// the library computes, and the cache must hit on every repeat.
	lenet, err := fpsa.LoadBenchmark("LeNet")
	if err != nil {
		return err
	}
	mlp, err := fpsa.LoadBenchmark("MLP-500-100")
	if err != nil {
		return err
	}
	cache := fpsa.NewCompileCache(0)
	lenetOpts := []fpsa.Option{fpsa.WithDuplication(compileDup), fpsa.WithPlacementSeeds(compileSeeds), fpsa.WithSeed(modelSeed), fpsa.WithCache(cache)}
	mlpOpts := []fpsa.Option{fpsa.WithChips(2), fpsa.WithChipCapacity(8), fpsa.WithSeed(modelSeed), fpsa.WithCache(cache)}
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		d, err := fpsa.Compile(ctx, lenet, lenetOpts...)
		if err != nil {
			return err
		}
		if pass == 0 {
			vals["fpsa.compile_frontend_ms"] = ms(time.Since(t0))
		}
		st, err := d.PlaceAndRoute(ctx)
		if err != nil {
			return err
		}
		bits, err := d.Bitstream(ctx)
		if err != nil {
			return err
		}
		p, err := d.PerformanceWithHops(int(math.Round(st.MeanHops)))
		if err != nil {
			return err
		}
		pes, _, _ := d.Blocks()
		got := compileFacts{PEs: pes, Moves: st.PlacementMoves, WirelengthCost: st.WirelengthCost, Iterations: st.Iterations,
			MeanHops: st.MeanHops, ChannelsNeeded: st.ChannelsNeeded, ProgrammedCells: bits.ProgrammedCells, SimLatencyUS: p.LatencyUS}
		if got != facts {
			r.Failed++
			r.problemf("LeNet compiled stage by stage gives %+v, the public API gives %+v", facts, got)
		}
		dm, err := fpsa.Compile(ctx, mlp, mlpOpts...)
		if err != nil {
			return err
		}
		if _, err := dm.PlaceAndRoute(ctx); err != nil {
			return err
		}
	}
	hits, misses := cache.Counters()
	vals["compilecache.hits"], vals["compilecache.misses"] = float64(hits), float64(misses)

	t0 := time.Now()
	_, rep, err := fpsa.Autotune(ctx, lenet, fpsa.MinLatency, fpsa.WithPEBudget(480), fpsa.WithSeed(modelSeed))
	if err != nil {
		return fmt.Errorf("autotune: %w", err)
	}
	vals["fpsa.autotune_ms"] = ms(time.Since(t0))
	vals["fpsa.autotune_candidates"] = float64(rep.Candidates)
	return nil
}
