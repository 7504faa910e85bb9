package fpsa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpsa/internal/synth"
)

// stackCase is one FuzzCompileStack input decoded: a small layered model
// with its weights and test vectors, and the compile options it runs under.
type stackCase struct {
	model  Model
	inputs [][]float64
	opts   []Option // every option but WithChips
	chips  int
	// objective is what the input's Autotune run optimizes.
	objective Objective
}

// decodeStack reads a stackCase from data, one byte per field and zero
// past the end:
//
//	layers-1, dup-1, chips-1, faulty, seed, C-1, H-1,
//	then per layer: kind, size-2, flags,
//	then the Autotune objective
//
// giving 1–4 layers, duplication 1–4, 1–3 chips, a stuck-cell rate of 0
// or 0.01, a C×H×H input with C in 1–64 and H in 1–8, and one of the
// three objectives. A layer's kind
// is FC, conv, max pool or global average pool; its size (2–64) is an FC
// width or a conv's output channels; flags bit 0 makes a conv 3×3 (pad 1)
// rather than 1×1, bit 1 gives it stride 2, and bit 2 appends a ReLU. An
// FC on a spatial tensor is preceded by a global average pool, and a max
// pool (2×2, stride 2) on a tensor smaller than 2×2 becomes one, so every
// decoded chain builds. The weights and the three test vectors are drawn
// from a generator seeded by the input's bytes.
func decodeStack(data []byte) (stackCase, error) {
	at := 0
	next := func(n int) int {
		b := 0
		if at < len(data) {
			b = int(data[at])
		}
		at++
		return b % n
	}
	layers, dup, chips, faulty, seed := 1+next(4), 1+next(4), 1+next(3), next(2), int64(next(256))
	c, h := 1+next(64), 1+next(8)
	var seeds uint64 = 1469598103934665603 // FNV-1a over every byte
	for _, b := range data {
		seeds = (seeds ^ uint64(b)) * 1099511628211
	}
	rng := rand.New(rand.NewSource(int64(seeds >> 1)))

	b := NewModelBuilder("fuzz", c, h, h)
	cur := struct{ c, h int }{c, h}
	var shapes [][2]int // each weight layer's [rows, cols], in order
	for range layers {
		kind, size, flags := next(4), 2+next(63), next(8)
		if kind == 0 && cur.h > 1 || kind == 2 && cur.h < 2 {
			b.GlobalAvgPool()
			cur.h = 1
		}
		switch kind {
		case 0:
			b.FC(size)
			shapes = append(shapes, [2]int{cur.c, size})
			cur.c = size
		case 1:
			k, stride := 1+2*(flags&1), 1+flags>>1&1
			b.Conv2D(size, k, stride, k/2)
			shapes = append(shapes, [2]int{k * k * cur.c, size})
			cur.c, cur.h = size, (cur.h-1)/stride+1
		case 2:
			if cur.h >= 2 {
				b.MaxPool(2, 2)
				cur.h /= 2
			}
		case 3:
			b.GlobalAvgPool()
			cur.h = 1
		}
		if flags&4 != 0 {
			b.ReLU()
		}
	}
	m, err := b.Build()
	if err != nil {
		return stackCase{}, err
	}
	sc := stackCase{model: m, chips: chips, objective: Objective(next(3))}
	weights := make(map[string][][]float64)
	for i, layer := range m.WeightLayers() {
		rows, cols := shapes[i][0], shapes[i][1]
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for j := range w[r] {
				w[r][j] = (2*rng.Float64() - 1) * 2 / math.Sqrt(float64(rows))
			}
		}
		weights[layer] = w
	}
	sc.inputs = make([][]float64, 3)
	for i := range sc.inputs {
		sc.inputs[i] = make([]float64, c*h*h)
		for j := range sc.inputs[i] {
			sc.inputs[i][j] = rng.Float64()
		}
	}
	sc.opts = []Option{WithWeights(weights), WithDuplication(dup), WithSeed(seed)}
	if faulty == 1 {
		sc.opts = append(sc.opts, WithFaultModel(0.01, seed))
	}
	return sc, nil
}

// sentinels is the package's error taxonomy: every error the stack
// returns wraps one of them.
var sentinels = []error{
	ErrModelInvalid, ErrCapacity, ErrUnroutable, ErrChipConflict, ErrClosed,
	ErrOverloaded, ErrTenantQuota, ErrInvalidArgument, ErrNotPlaced,
}

// typed reports whether err wraps one of the package's sentinels.
func typed(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// FuzzCompileStack decodes each input into a small model and compiles
// it. The compile, and every step after it, either fails with an error
// that wraps a package sentinel or passes every check:
//   - Blocks equals the counts of the netlists built from the deployment;
//   - Performance().LatencyUS is at least (depth + Γ) pipeline cycles:
//     every group on the longest dependency chain fills for at least one
//     cycle, and the bottleneck stage drains for at least Γ;
//   - in every exec mode, a sharded deployment's engine answers as the
//     single-chip one does, ClassifyBatch is n Classify calls, and the
//     engine's one-row ClassifyBatch, SpikingNet.Classify and the argmax
//     of the engine's raw outputs agree;
//   - Autotune under the same options, oracle only, returns what it
//     reports: the deployment's modeled objective is TunedValue, its
//     spend, replicas included, is TunedPEs within PEBudget, its chip
//     count is Chips, and Blocks equals its netlists' counts;
//   - a design of at most maxCachedBlocks blocks places, routes and
//     verifies, and a second compile through the same CompileCache places
//     and routes from the cache, with the first run's PRStats and
//     Bitstream facts.
//
// The corpus seeds are the test fixtures' shapes, MLP-500-100 and LeNet,
// the last two scaled into the decoder's 2–64 range, and a conv whose 288
// rows split into two row tiles and a reduction.
func FuzzCompileStack(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 0, 0, 0, 21, 11, 0, 0, 14, 4, 0, 1, 0},                 // deployTestNet: 12 → 16 → 3
		{2, 0, 1, 0, 5, 11, 0, 0, 8, 4, 0, 6, 4, 0, 1, 0},          // trainedDeployment: 12 → 10 → 8 → 3, 2 chips
		{1, 0, 1, 0, 0, 3, 0, 0, 1, 4, 0, 0, 4},                    // ExampleDeployment_NewEngine: 4 → 3 → 2, 2 chips
		{3, 1, 0, 1, 9, 1, 7, 1, 6, 5, 2, 0, 0, 3, 0, 0, 0, 2, 4},  // the conv benchmark net at 2×8×8, dup 2, faulted
		{2, 0, 0, 0, 1, 63, 0, 0, 48, 4, 0, 8, 4, 0, 8, 0},         // MLP-500-100 at 1/10: 64 → 50 → 10 → 10
		{3, 3, 2, 0, 2, 0, 7, 1, 4, 5, 2, 0, 0, 1, 14, 5, 0, 8, 0}, // LeNet: conv 6, pool, conv 16, FC 10; dup 4, 3 chips
		{2, 0, 1, 0, 3, 31, 3, 1, 14, 5, 2, 0, 0, 0, 8, 0},         // row split: 3×3 conv 32 → 16 (288 rows), pool, FC 10; 2 chips
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := decodeStack(data)
		if err != nil {
			t.Fatalf("decoded chain does not build: %v", err)
		}
		ctx := context.Background()
		d, err := Compile(ctx, sc.model, append(sc.opts, WithChips(sc.chips))...)
		if err != nil {
			if !typed(err) {
				t.Fatalf("Compile: untyped error %v", err)
			}
			return
		}
		checkBlocks(t, d)
		checkLatencyBound(t, d)
		var single *Deployment
		if d.Chips() > 1 {
			if single, err = Compile(ctx, sc.model, sc.opts...); err != nil {
				t.Fatalf("%d-chip compile passed, single-chip failed: %v", d.Chips(), err)
			}
		}
		for _, mode := range []ExecMode{ModeReference, ModeSpiking, ModeSpikingNoisy} {
			checkServing(t, d, single, mode, sc.inputs)
		}
		checkAutotune(t, sc)
		checkCachedPlaceAndRoute(t, sc)
	})
}

// maxCachedBlocks bounds the designs checkCachedPlaceAndRoute places and
// routes: small enough that a run takes milliseconds.
const maxCachedBlocks = 64

// checkCachedPlaceAndRoute: a design of at most maxCachedBlocks blocks
// places, routes and verifies, and compiled a second time through the
// same CompileCache it hits the cache, with the same PRStats (but for
// FromCache) and the same Bitstream facts.
func checkCachedPlaceAndRoute(t *testing.T, sc stackCase) {
	t.Helper()
	ctx := context.Background()
	cache := NewCompileCache(8)
	opts := append(sc.opts, WithChips(sc.chips), WithCache(cache))
	type run struct {
		pr  PRStats
		bit BitstreamInfo
	}
	var runs [2]run
	for i := range runs {
		d, err := Compile(ctx, sc.model, opts...)
		if err != nil {
			return // the uncached compile has checked this error
		}
		pes, smbs, clbs := d.Blocks()
		if pes+smbs+clbs > maxCachedBlocks {
			return
		}
		r := &runs[i]
		if r.pr, err = d.PlaceAndRoute(ctx); err != nil {
			t.Fatalf("compile %d: PlaceAndRoute of %d blocks: %v", i+1, pes+smbs+clbs, err)
		}
		if r.bit, err = d.Bitstream(ctx); err != nil {
			t.Fatalf("compile %d: Bitstream: %v", i+1, err)
		}
	}
	first, second := runs[0], runs[1]
	if first.pr.FromCache || !second.pr.FromCache {
		t.Fatalf("FromCache: first run %v, second %v; want false then true", first.pr.FromCache, second.pr.FromCache)
	}
	second.pr.FromCache = false
	if first.pr != second.pr || first.bit != second.bit {
		t.Fatalf("through the cache: PRStats %+v then %+v, Bitstream %+v then %+v", first.pr, second.pr, first.bit, second.bit)
	}
}

// checkAutotune: an oracle-only Autotune under the case's options fails
// with a package sentinel or returns the deployment its report describes.
func checkAutotune(t *testing.T, sc stackCase) {
	t.Helper()
	obj := sc.objective
	d, rep, err := Autotune(context.Background(), sc.model, obj, append(sc.opts, WithChips(sc.chips), WithAutotuneRefine(0))...)
	if err != nil {
		if !typed(err) {
			t.Fatalf("Autotune %v: untyped error %v", obj, err)
		}
		return
	}
	p, err := d.Performance()
	if err != nil {
		t.Fatalf("Autotune %v: the winner scored, its deployment's Performance failed: %v", obj, err)
	}
	if got := obj.value(p); got != rep.TunedValue {
		t.Fatalf("Autotune %v: deployment models %v, report says %v", obj, got, rep.TunedValue)
	}
	if pes := d.alloc.TotalPEs * d.alloc.Replicas; pes != rep.TunedPEs || pes > rep.PEBudget {
		t.Fatalf("Autotune %v: deployment spends %d PEs, report says %d within %d", obj, pes, rep.TunedPEs, rep.PEBudget)
	}
	if d.Chips() != rep.Chips {
		t.Fatalf("Autotune %v: deployment has %d chips, report says %d", obj, d.Chips(), rep.Chips)
	}
	checkBlocks(t, d)
}

// checkBlocks: the deployment's block inventory is its netlists'.
func checkBlocks(t *testing.T, d *Deployment) {
	t.Helper()
	var pes, smbs, clbs int
	for k, sh := range d.shards {
		nl, err := d.shardNetlist(sh)
		if err != nil {
			t.Fatalf("chip %d netlist: %v", k, err)
		}
		p, s, c := nl.Counts()
		pes, smbs, clbs = pes+p, smbs+s, clbs+c
	}
	if p, s, c := d.Blocks(); p != pes || s != smbs || c != clbs {
		t.Fatalf("Blocks = %d PEs, %d SMBs, %d CLBs; netlists have %d, %d, %d", p, s, c, pes, smbs, clbs)
	}
}

// checkLatencyBound: the modelled latency is at least (depth + Γ)
// pipeline cycles.
func checkLatencyBound(t *testing.T, d *Deployment) {
	t.Helper()
	perf, err := d.Performance()
	if err != nil {
		if !typed(err) {
			t.Fatalf("Performance: untyped error %v", err)
		}
		return
	}
	chain := make([]int, len(d.coreop.Groups))
	depth := 0
	for i, grp := range d.coreop.Groups {
		for _, dep := range grp.Deps {
			chain[i] = max(chain[i], chain[dep])
		}
		chain[i]++
		depth = max(depth, chain[i])
	}
	bound := float64(depth+d.params.SamplingWindow()) * d.params.PipelineClockNS() * 1e-3
	if perf.LatencyUS < bound*(1-1e-12) {
		t.Fatalf("LatencyUS = %g, below the (depth %d + Γ %d) closed form %g", perf.LatencyUS, depth, d.params.SamplingWindow(), bound)
	}
}

// checkServing runs the inputs through d's engine in mode: batch against
// single calls, the engine against the net, and, when single is set, the
// sharded engine against the single-chip one.
func checkServing(t *testing.T, d, single *Deployment, mode ExecMode, inputs [][]float64) {
	t.Helper()
	ctx := context.Background()
	eng, err := d.NewEngine(ctx, WithMode(mode))
	if err != nil {
		if !typed(err) {
			t.Fatalf("%v: NewEngine: untyped error %v", mode, err)
		}
		return
	}
	defer eng.Close()
	sn, err := d.NewNet(nil)
	if err != nil {
		t.Fatalf("%v: NewEngine passed, NewNet failed: %v", mode, err)
	}
	batch, err := eng.ClassifyBatch(ctx, inputs)
	if err != nil {
		t.Fatalf("%v: ClassifyBatch: %v", mode, err)
	}
	outs := make([][]int, len(inputs))
	for i, x := range inputs {
		classes, err := eng.ClassifyBatch(ctx, [][]float64{x})
		if err != nil {
			t.Fatalf("%v: ClassifyBatch: %v", mode, err)
		}
		class := classes[0]
		if outs[i], err = engineOutputs(ctx, eng, x); err != nil {
			t.Fatalf("%v: Outputs: %v", mode, err)
		}
		// A noisy net draws fresh variation per call; reseeded, its next
		// call programs what every executor of the engine was programmed
		// with.
		sn.SetSeed(sn.currentSeed())
		netClass, err := sn.Classify(x, mode)
		if err != nil {
			t.Fatalf("%v: SpikingNet.Classify: %v", mode, err)
		}
		if argmax := synth.Argmax(outs[i]); class != batch[i] || class != netClass || class != argmax {
			t.Fatalf("%v input %d: Engine.Classify %d, ClassifyBatch %d, SpikingNet.Classify %d, argmax of the engine outputs %d (%v)",
				mode, i, class, batch[i], netClass, argmax, outs[i])
		}
	}
	if single == nil {
		return
	}
	ref, err := single.NewEngine(ctx, WithMode(mode))
	if err != nil {
		t.Fatalf("%v: single-chip NewEngine: %v", mode, err)
	}
	defer ref.Close()
	for i, x := range inputs {
		want, err := engineOutputs(ctx, ref, x)
		if err != nil {
			t.Fatalf("%v: single-chip Outputs: %v", mode, err)
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("%v input %d: %d-chip outputs %v, single-chip %v", mode, i, d.Chips(), outs[i], want)
		}
	}
}
