package fpsa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fpsa/internal/bitstream"
	"fpsa/internal/compilecache"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/netlist"
	"fpsa/internal/perf"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/shard"
	"fpsa/internal/synth"
)

// config is what Compile's functional options (WithDuplication,
// WithChips, WithCache, …) fill in.
type config struct {
	// Duplication is the model duplication degree (§5.2 of the paper);
	// 0 means 1×.
	Duplication int
	// Seed drives placement annealing.
	Seed int64
	// PlacementSeeds is the size of the multi-seed annealing portfolio
	// PlaceAndRoute runs (0 or 1 = a single run, the classic behavior).
	// Portfolio run i anneals independently with seed Seed+1+i; runs
	// whose checkpoint cost falls a margin behind the portfolio's
	// best-so-far are cancelled early (see place.PortfolioOptions), and
	// the cheapest placement wins deterministically.
	PlacementSeeds int
	// Parallelism bounds the worker goroutines PlaceAndRoute uses for
	// both the annealing portfolio and per-iteration net routing
	// (0 = GOMAXPROCS). It changes wall-clock only, never results, and is
	// therefore excluded from the deployment-cache key.
	Parallelism int
	// Cache, when non-nil, memoizes placement/routing/bitstream artifacts
	// content-addressed by the model structure and this config: a
	// cache-hit PlaceAndRoute skips both phases entirely and Bitstream is
	// generated at most once per deployment key. Share one cache across
	// every Compile in the process (see NewCompileCache). Each shard of a
	// multi-chip deployment is a separate cache entry, so shards compile,
	// cache and revalidate independently.
	Cache *CompileCache
	// MaxChips allows the deployment to span up to this many chips
	// (0 or 1 = the classic single-chip compile). A model whose PE
	// demand exceeds ChipCapacity is an error on one chip; with
	// MaxChips ≥ 2 the core-op graph is partitioned across chips
	// instead (see ShardPolicy) and each chip is placed, routed and
	// configured independently. With ChipCapacity 0 the model is spread
	// over exactly MaxChips chips (clamped to the group count).
	MaxChips int
	// ChipCapacity bounds one chip's PE count (0 = unbounded). The
	// evaluated fabric has no hard limit — area simply grows — so the
	// bound is a deployment policy: the reticle/yield-limited die size a
	// fleet actually fabricates.
	ChipCapacity int
	// ShardPolicy selects the multi-chip partitioning objective
	// (ShardAuto = minimal inter-chip traffic for compilation).
	ShardPolicy ShardPolicy
	// Faults is the deployment's non-ideal device scenario: deterministic
	// stuck cells, drift and read variation applied when crossbars are
	// programmed, steered around by the mapper's spare-row/column
	// remapping and keyed into the compile cache. nil (or an all-zero
	// map) is bit-identical to ideal devices. See WithFaultModel and
	// WithFaultMap.
	Faults *FaultMap
}

// validate rejects option inputs that cannot mean anything — negative
// knobs, out-of-range fault parameters, fault seeds for layers that are
// not m's weight layers — before they flow silently into allocation or
// partitioning. Zero stays "use the default" everywhere, as the option
// docs promise. Every rejection wraps ErrInvalidArgument.
func (c config) validate(m Model) error {
	for _, k := range []struct {
		name string
		v    int
	}{
		{"WithDuplication", c.Duplication},
		{"WithPlacementSeeds", c.PlacementSeeds},
		{"WithParallelism", c.Parallelism},
		{"WithChips", c.MaxChips},
		{"WithChipCapacity", c.ChipCapacity},
	} {
		if k.v < 0 {
			return fmt.Errorf("%w: %s(%d): value must be ≥ 0 (0 = default)", ErrInvalidArgument, k.name, k.v)
		}
	}
	return c.Faults.validate(m.WeightLayers())
}

// validate rejects fault-scenario parameters outside their physical
// domains. NaN is rejected everywhere: a NaN rate or drift would
// silently disable comparisons and corrupt the deterministic draws. A
// LayerSeeds entry must name one of weightLayers: only a weight layer's
// crossbars carry its name when they run (pooling crossbars are shared
// across layers), so any other entry would be a silent no-op.
func (f *FaultMap) validate(weightLayers []string) error {
	if f == nil {
		return nil
	}
	for _, k := range []struct {
		name     string
		v        float64
		lo, hi   float64
		openHigh bool
	}{
		{"fault rate", f.Rate, 0, 1, false},
		{"stuck-high fraction", f.StuckHighFrac, 0, 1, false},
		{"drift", f.Drift, 0, 1, true},
		{"read sigma", f.ReadSigma, 0, math.Inf(1), false},
	} {
		if math.IsNaN(k.v) || k.v < k.lo || k.v > k.hi || (k.openHigh && k.v == k.hi) {
			return fmt.Errorf("%w: WithFaultMap: %s %v outside its valid range", ErrInvalidArgument, k.name, k.v)
		}
	}
	// Sorted iteration: with several bad entries the reported one must
	// not depend on map order.
	layers := make([]string, 0, len(f.LayerSeeds))
	for layer := range f.LayerSeeds {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		if s := f.LayerSeeds[layer]; s < 0 {
			return fmt.Errorf("%w: WithFaultMap: layer %q seed %d must be ≥ 0", ErrInvalidArgument, layer, s)
		}
		if !slices.Contains(weightLayers, layer) {
			return fmt.Errorf("%w: WithFaultMap: layer %q is not a weight layer of the model", ErrInvalidArgument, layer)
		}
	}
	return nil
}

// cacheSegment renders the scenario canonically for the compile-cache
// key, so faulted and ideal artifacts (or two different scenarios) never
// collide. Inactive maps render empty — bit-identical hardware must hit
// the same cache entry as no map at all.
func (f *FaultMap) cacheSegment() string {
	if !f.active() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rate=%s,seed=%d,high=%s,drift=%s,rsig=%s,remap=%t",
		strconv.FormatFloat(f.Rate, 'g', -1, 64), f.Seed,
		strconv.FormatFloat(f.StuckHighFrac, 'g', -1, 64),
		strconv.FormatFloat(f.Drift, 'g', -1, 64),
		strconv.FormatFloat(f.ReadSigma, 'g', -1, 64), !f.NoRemap)
	if len(f.LayerSeeds) > 0 {
		layers := make([]string, 0, len(f.LayerSeeds))
		for layer := range f.LayerSeeds {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		b.WriteString(",layers=")
		for i, layer := range layers {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s:%d", layer, f.LayerSeeds[layer])
		}
	}
	return b.String()
}

// Deployment is a model mapped onto the FPSA fabric.
type Deployment struct {
	model Model
	cfg   config
	// faults is cfg.Faults lowered once (nil when inactive): netlist
	// construction and every net, engine and fleet replica derived from
	// this deployment share the one model, and so the masks it remembers.
	faults *device.FaultModel
	coreop *coreop.Graph
	alloc  mapper.Allocation
	params device.Params

	// shards is the chip partition, one entry per chip and never empty: a
	// single-chip deployment is the one shard [0, groups). cutTraffic[k]
	// is the per-sample signal traffic on the link from chip k to k+1
	// (empty on one chip).
	shards     []*deployShard
	cutTraffic []int

	// weights is the WithWeights/WithWeightSource registration; net
	// memoizes the SpikingNet NewNet derives from it so every engine of
	// this deployment shares one synthesized program.
	weights WeightSource
	netMu   sync.Mutex
	net     *SpikingNet

	// prMu guards every shard's artifacts slot: PlaceAndRoute stores
	// there and Bitstream reads, possibly from several goroutines (a
	// deployment registered in two fleets, or under two names).
	prMu sync.Mutex
}

// deployShard is one chip of a deployment: its core-op graph (the
// deployment's own on a single chip; otherwise the sub-graph of its group
// range with cross-chip dependencies lifted to chip I/O), its slice of the
// global allocation, its block inventory, and — after PlaceAndRoute — its
// artifacts. The artifacts also memoize the generated bitstream — per
// deployment when uncached, shared across every deployment of the key
// when a cache supplied them. Generation is deterministic, so repeat
// Bitstream calls returning the memo are indistinguishable from
// regeneration.
type deployShard struct {
	lo, hi int // global group ID range [lo, hi)
	co     *coreop.Graph
	alloc  mapper.Allocation
	// pes, smbs and clbs are the chip's function-block inventory, counted
	// at Compile (mapper.CountBlocks) — all that Blocks, AreaMM2 and Shards
	// need of the netlist.
	pes, smbs, clbs int
	// nl is the chip's netlist, which only placement, routing and
	// bitstream generation read: Deployment.shardNetlist builds it the
	// first time one of them has work to do, so a deployment that is only
	// evaluated, or whose artifacts all come from the cache, never holds one.
	nlOnce sync.Once
	nl     *netlist.Netlist
	nlErr  error

	artifacts *compilecache.Artifacts // guarded by Deployment.prMu
}

// Compile synthesizes, allocates and maps a model, returning the
// Deployment every later phase hangs off: Performance and PlaceAndRoute
// evaluate it, Bitstream configures it, NewNet and NewEngine run it.
// Behavior is shaped by functional options — WithDuplication, WithChips,
// WithCache, WithPlacementSeeds, WithParallelism, WithWeights, … — so
// the chip partition, duplication and cache chosen here flow through to
// execution instead of being re-declared per subsystem. With WithChips
// ≥ 2 the model is partitioned into per-chip shards; otherwise it is the
// one shard covering every group. Compile counts each chip's function
// blocks but builds no netlist — the first PlaceAndRoute that has to place
// a chip does.
//
// ctx bounds the compile; cancellation or deadline expiry aborts between
// phases and returns ctx.Err(). Errors wrap the package's taxonomy:
// ErrModelInvalid for a model the stack rejects, ErrCapacity when the
// model does not fit the requested chips.
func Compile(ctx context.Context, m Model, opts ...Option) (*Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fe, err := newFrontEnd(ctx, m, applyOptions(opts))
	if err != nil {
		return nil, err
	}
	cfg := fe.cfg
	alloc, err := mapper.Allocate(fe.co, cfg.Duplication)
	if err != nil {
		// Allocation rejects resource requests the model cannot sustain
		// (duplication beyond the maximum reuse degree).
		return nil, fmt.Errorf("%w: %w", ErrCapacity, err)
	}
	// One chip holds every replica: the whole spend is what must fit, as
	// Autotune's PEBudget counts it.
	if pes := alloc.TotalPEs * alloc.Replicas; cfg.ChipCapacity > 0 && pes > cfg.ChipCapacity && cfg.MaxChips <= 1 {
		return nil, fmt.Errorf("%w: model %s needs %d PEs (%d replicas of %d), exceeding one chip's capacity of %d; compile with WithChips(n ≥ 2) to shard it",
			ErrCapacity, m.Name(), pes, alloc.Replicas, alloc.TotalPEs, cfg.ChipCapacity)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bounds, cutTraffic := []int{0, len(fe.co.Groups)}, []int(nil)
	if cfg.MaxChips > 1 {
		plan, err := fe.partition(alloc)
		if err != nil {
			return nil, err
		}
		bounds, cutTraffic = plan.Bounds, plan.CutTraffic
	}
	return fe.deploy(cfg, alloc, bounds, cutTraffic)
}

// frontEnd is what Compile and Autotune share before either decides an
// allocation: the checked model and options, the options' defaults
// filled in, and the synthesized core-op graph.
type frontEnd struct {
	model   Model
	cfg     config
	weights WeightSource
	co      *coreop.Graph
	params  device.Params
}

// newFrontEnd checks the model and options, fills in the defaults and
// synthesizes the model.
func newFrontEnd(ctx context.Context, m Model, set compileSettings) (*frontEnd, error) {
	if err := m.valid(); err != nil {
		return nil, err
	}
	if set.faultModelSet && set.faultMapSet {
		return nil, fmt.Errorf("%w: WithFaultModel and WithFaultMap both given; pass one fault scenario", ErrInvalidArgument)
	}
	if err := set.cfg.validate(m); err != nil {
		return nil, err
	}
	cfg := set.cfg
	cfg.Duplication = max(cfg.Duplication, 1)
	cfg.PlacementSeeds = max(cfg.PlacementSeeds, 1)
	cfg.MaxChips = max(cfg.MaxChips, 1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := device.Params45nm
	co, err := synth.Synthesize(m.graph, synth.Options{Params: params})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrModelInvalid, err)
	}
	return &frontEnd{model: m, cfg: cfg, weights: set.weights, co: co, params: params}, nil
}

// deploy builds the deployment of alloc under cfg, cut into one chip per
// segment [bounds[k], bounds[k+1]) of the group chain, with cutTraffic[k]
// the per-sample traffic on the link from chip k to k+1.
func (fe *frontEnd) deploy(cfg config, alloc mapper.Allocation, bounds, cutTraffic []int) (*Deployment, error) {
	d := &Deployment{model: fe.model, cfg: cfg, faults: cfg.Faults.deviceModel(), coreop: fe.co, alloc: alloc,
		params: fe.params, weights: fe.weights, cutTraffic: cutTraffic}
	if err := d.buildShards(bounds); err != nil {
		return nil, err
	}
	return d, nil
}

// partition cuts the core-op group chain across up to MaxChips chips (one
// group, or a count clamped to 1, yields the one-chip plan). Groups are
// in topological order, so contiguous segments always yield a
// feed-forward chip pipeline; per-group load is its allocated PE copies
// and a producer's per-sample output traffic (reuse × columns) is charged
// on every link it crosses.
func (fe *frontEnd) partition(alloc mapper.Allocation) (*shard.Plan, error) {
	cfg := fe.cfg
	weights, signals := shardChain(fe.co.Groups, alloc.Dup)
	policy, err := cfg.ShardPolicy.compilePolicy()
	if err != nil {
		return nil, err
	}
	maxChips := min(cfg.MaxChips, len(fe.co.Groups))
	minChips := 1
	if cap := cfg.ChipCapacity; cap > 0 {
		minChips = (alloc.TotalPEs + cap - 1) / cap
		if minChips > maxChips {
			return nil, fmt.Errorf("%w: model %s needs %d PEs — at least %d chips of capacity %d — but WithChips allows %d",
				ErrCapacity, fe.model.Name(), alloc.TotalPEs, minChips, cfg.ChipCapacity, cfg.MaxChips)
		}
	} else {
		// No capacity bound: the user asked for this many chips.
		minChips = maxChips
	}
	var plan *shard.Plan
	for k := minChips; k <= maxChips; k++ {
		plan, err = shard.Partition(weights, signals, nil, shard.Options{
			Chips:    k,
			Capacity: cfg.ChipCapacity,
			Policy:   policy,
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: cannot shard %s across ≤ %d chips: %w", ErrCapacity, fe.model.Name(), maxChips, err)
	}
	return plan, nil
}

// buildShards builds one deployShard per chip of the partition and counts
// its blocks. A single chip is the deployment's own graph and allocation;
// several get a sub-graph each, renumbered from 0.
func (d *Deployment) buildShards(bounds []int) error {
	d.shards = make([]*deployShard, len(bounds)-1)
	for k := range d.shards {
		sh := &deployShard{lo: bounds[k], hi: bounds[k+1], co: d.coreop, alloc: d.alloc}
		if len(d.shards) > 1 {
			sh.co, sh.alloc = d.subGraph(k, sh.lo, sh.hi)
		}
		var err error
		if sh.pes, sh.smbs, sh.clbs, err = mapper.CountBlocks(sh.co, sh.alloc, d.params); err != nil {
			return d.shardErr(k, err)
		}
		d.shards[k] = sh
	}
	return nil
}

// shardNetlist returns a chip's netlist, building it on first use — the
// one place a deployment builds a netlist.
func (d *Deployment) shardNetlist(sh *deployShard) (*netlist.Netlist, error) {
	sh.nlOnce.Do(func() {
		// unitBase = lo: a sub-graph renumbers its groups from 0, but
		// fault maps key on the global group ID the executor programs.
		sh.nl, sh.nlErr = mapper.BuildNetlistFaulted(sh.co, sh.alloc, d.params, nil, d.faults, sh.lo)
	})
	return sh.nl, sh.nlErr
}

// subGraph extracts chip k's groups [lo, hi) as a core-op graph of their
// own, with its slice of the allocation.
func (d *Deployment) subGraph(k, lo, hi int) (*coreop.Graph, mapper.Allocation) {
	sub := &coreop.Graph{Name: fmt.Sprintf("%s.chip%d", d.coreop.Name, k)}
	for _, grp := range d.coreop.Groups[lo:hi] {
		g := *grp // shallow copy; deps re-pointed below
		g.Deps = nil
		for _, dep := range grp.Deps {
			if dep >= lo {
				g.Deps = append(g.Deps, dep-lo)
			}
			// Cross-chip dependencies become chip inputs, fed over
			// the inter-chip link; they are no longer nets of this
			// chip's netlist.
		}
		sub.AddGroup(&g)
	}
	pes := 0
	for _, dup := range d.alloc.Dup[lo:hi] {
		pes += dup
	}
	return sub, mapper.Allocation{
		Dup:        d.alloc.Dup[lo:hi],
		Iterations: d.alloc.Iterations[lo:hi],
		TotalPEs:   pes,
	}
}

// shardErr names the failing chip of a multi-chip deployment; on a single
// chip there is nothing to name and the error passes through.
func (d *Deployment) shardErr(k int, err error) error {
	if len(d.shards) == 1 {
		return err
	}
	return fmt.Errorf("fpsa: shard %d: %w", k, err)
}

// shardChain derives the chain partitioner's inputs from a core-op group
// list and its per-group duplication vector: per-group PE load, and the
// signal chain — a producer's per-sample output traffic (reuse × columns)
// charged on every link it crosses, external model input reaching the
// first consumer's chip, consumer-less outputs carried off the last chip.
// Shared by partition and the autotuner's cut candidates so a searched cut
// is accounted exactly like a compiled one.
func shardChain(groups []*coreop.Group, dup []int) (weights []int, signals []shard.Signal) {
	n := len(groups)
	weights = make([]int, n)
	copy(weights, dup)
	lastUse := make([]int, n)
	hasDeps := make([]bool, n)
	for i := range lastUse {
		lastUse[i] = i
	}
	for vi, grp := range groups {
		for _, ui := range grp.Deps {
			if vi > lastUse[ui] {
				lastUse[ui] = vi
			}
			hasDeps[vi] = true
		}
	}
	for i, grp := range groups {
		// Per-sample value traffic out of the group; consumer-less
		// groups carry the model's outputs off the last chip.
		last := lastUse[i]
		if last == i {
			last = n - 1
		}
		signals = append(signals, shard.Signal{Prod: i, Last: last, Width: grp.Reuse * grp.Cols})
		if !hasDeps[i] {
			// External model input must reach this group's chip.
			signals = append(signals, shard.Signal{Prod: -1, Last: i, Width: grp.Rows})
		}
	}
	return weights, signals
}

// Blocks returns the function-block inventory (summed over every chip of
// a sharded deployment) of one whole-model replica; a deployment
// duplicated past its maximum reuse degree runs PerfSummary.Replicas of
// them side by side.
func (d *Deployment) Blocks() (pes, smbs, clbs int) {
	for _, sh := range d.shards {
		pes, smbs, clbs = pes+sh.pes, smbs+sh.smbs, clbs+sh.clbs
	}
	return pes, smbs, clbs
}

// AreaMM2 returns the chip area (blocks; the mrFPGA routing fabric stacks
// above them), summed over every chip of a sharded deployment, of one
// whole-model replica, as Blocks counts it.
func (d *Deployment) AreaMM2() float64 {
	total := 0.0
	for _, sh := range d.shards {
		total += netlist.BlockAreaUM2(d.params, sh.pes, sh.smbs, sh.clbs) * 1e-6
	}
	return total
}

// CoreOps returns the synthesized weight-group count and total core-op
// executions per sample.
func (d *Deployment) CoreOps() (groups int, opsPerSample int64) {
	return len(d.coreop.Groups), d.coreop.TotalCoreOps()
}

// PerfSummary is a deployment's modeled performance.
type PerfSummary struct {
	ThroughputSPS    float64
	LatencyUS        float64
	PerfOPS          float64
	DensityOPSmm2    float64
	PeakOPS          float64
	SpatialBoundOPS  float64
	TemporalBoundOPS float64
	CompNSPerVMM     float64
	CommNSPerVMM     float64
	// EnergyUJ is the per-sample energy (Table 1 per-block energies; PE
	// + SMB + CLB, routing excluded); PowerMW multiplies by throughput.
	EnergyUJ float64
	PowerMW  float64
	// Chips is the deployment's chip count; LinkNSPerSample is the
	// per-sample inter-chip transfer time charged into latency (both
	// trivial — 1 and 0 — for a single-chip deployment).
	Chips           int
	LinkNSPerSample float64
	// Replicas is the number of whole-model copies the throughput counts:
	// the duplication left once every group holds as many copies as its
	// reuse degree can use (1 unless duplication exceeds it).
	Replicas int
}

// String renders the summary.
func (p PerfSummary) String() string {
	out := fmt.Sprintf("throughput %.4g samples/s, latency %.4g us, perf %.4g OPS (%.4g OPS/mm2), energy %.4g uJ/sample (%.4g mW), bounds peak %.3g / spatial %.3g / temporal %.3g",
		p.ThroughputSPS, p.LatencyUS, p.PerfOPS, p.DensityOPSmm2,
		p.EnergyUJ, p.PowerMW,
		p.PeakOPS, p.SpatialBoundOPS, p.TemporalBoundOPS)
	if p.Chips > 1 {
		out += fmt.Sprintf(", %d chips (link %.4g ns/sample)", p.Chips, p.LinkNSPerSample)
	}
	return out
}

// Performance evaluates the deployment with the calibrated mean routed hop
// count; PerformanceWithHops substitutes a measured value (see
// PlaceAndRoute).
func (d *Deployment) Performance() (PerfSummary, error) { return d.PerformanceWithHops(0) }

// PerformanceWithHops evaluates the deployment using the given mean routed
// hop count (0 = the calibrated default). The model charges the
// whole-model block inventory — per-chip netlists of a sharded deployment
// drop the cross-chip edges and pack controllers per chip — plus, for a
// sharded deployment, each inter-chip link's per-sample transfer (see
// PerfSummary.LinkNSPerSample).
func (d *Deployment) PerformanceWithHops(hops int) (PerfSummary, error) {
	return evaluatePerf(d.model, d.coreop, d.params, d.cfg.Duplication, d.alloc.Dup, d.cutTraffic, hops)
}

// evaluatePerf models the per-group assignment of co at duplication dup,
// with cutWidths the traffic on each inter-chip link and hops the mean
// routed hop count (0 = the calibrated default). Deployments and the
// autotuner's oracle both evaluate through it, so a deployment built from
// a scored candidate models exactly the candidate's value.
func evaluatePerf(m Model, co *coreop.Graph, params device.Params, dup int, assign, cutWidths []int, hops int) (PerfSummary, error) {
	r, err := perf.Evaluate(perf.Input{
		Model:     m.graph,
		CoreOps:   co,
		Params:    params,
		Dup:       dup,
		Assign:    assign,
		Hops:      hops,
		CutWidths: cutWidths,
	}, perf.TargetFPSA)
	if err != nil {
		return PerfSummary{}, err
	}
	return summarize(r), nil
}

// summarize lifts a performance-model report into the public summary.
func summarize(r perf.Report) PerfSummary {
	return PerfSummary{
		ThroughputSPS:    r.ThroughputSPS,
		LatencyUS:        r.LatencyUS,
		PerfOPS:          r.PerfOPS,
		DensityOPSmm2:    r.DensityOPSmm2,
		PeakOPS:          r.PeakOPS,
		SpatialBoundOPS:  r.SpatialBoundOPS,
		TemporalBoundOPS: r.TemporalBoundOPS,
		CompNSPerVMM:     r.CompNSPerVMM,
		CommNSPerVMM:     r.CommNSPerVMM,
		EnergyUJ:         r.Energy.TotalUJ(),
		PowerMW:          r.PowerMW,
		Chips:            r.Chips,
		LinkNSPerSample:  r.LinkNSPerSample,
		Replicas:         r.Replicas,
	}
}

// PRStats reports a placement & routing run.
type PRStats struct {
	ChipSide       int
	Converged      bool
	Iterations     int
	MeanHops       float64
	MaxHops        int
	ChannelsNeeded int
	// PlacementMoves sums annealing moves across the whole portfolio (the
	// work spent); WirelengthCost is the winning placement's exact cost.
	PlacementMoves int
	WirelengthCost float64
	// Restarts is the portfolio size the placement was chosen from.
	Restarts int
	// FromCache reports that the deployment cache supplied the artifacts
	// and no annealing or routing ran. For a sharded deployment it is
	// true only when every shard hit the cache.
	FromCache bool
	// Chips is the number of chips placed and routed (1 for a
	// single-chip deployment). For a sharded deployment ChipSide,
	// MaxHops and ChannelsNeeded report the worst chip, MeanHops the
	// net-weighted mean over chips, and the move/cost/iteration counters
	// sum the per-chip runs.
	Chips int
}

// String renders the stats.
func (s PRStats) String() string {
	out := fmt.Sprintf("chip %dx%d, routed converged=%v in %d iters, hops mean %.1f max %d, channels needed %d",
		s.ChipSide, s.ChipSide, s.Converged, s.Iterations, s.MeanHops, s.MaxHops, s.ChannelsNeeded)
	if s.Chips > 1 {
		out = fmt.Sprintf("%d chips, worst %s", s.Chips, out)
	}
	if s.Restarts > 1 {
		out += fmt.Sprintf(", portfolio %d seeds", s.Restarts)
	}
	if s.FromCache {
		out += " (cached)"
	}
	return out
}

// BitstreamInfo summarizes a generated, verified FPSA configuration.
type BitstreamInfo struct {
	// ProgrammedCells is the number of low-resistance mrFPGA ReRAM
	// cells (switch-box plus connection-box).
	ProgrammedCells int
	SBCells         int
	CBCells         int
	// TrackOccupancy is the busiest channel's used tracks.
	TrackOccupancy int
}

// Bitstream generates and verifies the FPSA configuration — the final
// artifact of the stack (Figure 5) — for the last PlaceAndRoute run. The
// verification interprets only the programmed ReRAM cells and proves every
// net's source reaches every sink with no shorts. Each chip gets its own
// configuration, generated and verified at most once per artifacts (so at
// most once per cache key); the info sums the programmed cells and reports
// the busiest chip's track occupancy. ctx bounds the generation:
// cancellation aborts between chips and returns ctx.Err().
func (d *Deployment) Bitstream(ctx context.Context) (BitstreamInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var total BitstreamInfo
	for k, sh := range d.shards {
		if err := ctx.Err(); err != nil {
			return BitstreamInfo{}, err
		}
		d.prMu.Lock()
		art := sh.artifacts
		d.prMu.Unlock()
		if art == nil {
			return BitstreamInfo{}, fmt.Errorf("%w: run PlaceAndRoute before Bitstream", ErrNotPlaced)
		}
		cfg, err := art.Bitstream(func() (*bitstream.Config, error) {
			nl, err := d.shardNetlist(sh)
			if err != nil {
				return nil, err
			}
			cfg, err := bitstream.Generate(nl, art.Placement, art.Route, art.Chip)
			if err != nil {
				return nil, err
			}
			if err := cfg.Verify(nl); err != nil {
				return nil, fmt.Errorf("generated configuration failed verification: %w", err)
			}
			return cfg, nil
		})
		if err != nil {
			return BitstreamInfo{}, d.shardErr(k, err)
		}
		total.ProgrammedCells += cfg.CellCount()
		total.SBCells += len(cfg.SBCells)
		total.CBCells += len(cfg.CBCells)
		if occ := cfg.TrackOccupancy(); occ > total.TrackOccupancy {
			total.TrackOccupancy = occ
		}
	}
	return total, nil
}

// PlaceAndRoute runs multi-seed simulated-annealing placement and
// parallel PathFinder routing on every chip's netlist — built here, the
// first time a chip has to be placed; concurrently, each chip being an
// independent netlist — and reports the measured
// communication geometry, aggregated over chips (see PRStats.Chips).
// WithPlacementSeeds sets the annealing portfolio size and WithParallelism
// the worker count; the result is deterministic for a fixed (seed,
// portfolio size) regardless of parallelism. With WithCache, the artifacts
// are served content-addressed, each chip a separate entry — a repeat
// deployment of the same model and options skips placement and routing
// entirely (PRStats.FromCache), and re-sharding at a different WithChips
// only recompiles the chips whose content actually changed. Intended for
// small and medium deployments (hundreds of blocks); the large zoo models
// use the calibrated hop estimate instead.
//
// ctx bounds the run: cancellation or deadline expiry aborts the
// annealing portfolio at its next cost checkpoint and the router at its
// next negotiation checkpoint, returning ctx.Err(). An uncancelled run
// is unaffected — results are bit-identical with or without a deadline.
// A cancelled run caches nothing, so a later call recomputes.
//
// Safe for concurrent use with itself and Bitstream: callers racing on one
// deployment may each compute (results are deterministic), and each stores
// a complete set of artifacts.
func (d *Deployment) PlaceAndRoute(ctx context.Context) (PRStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	type result struct {
		art *compilecache.Artifacts
		hit bool
		err error
	}
	results := make([]result, len(d.shards))
	var wg sync.WaitGroup
	for k, sh := range d.shards {
		wg.Add(1)
		go func(k int, sh *deployShard) {
			defer wg.Done()
			r := &results[k]
			// Only a chip that is actually placed needs its netlist; a
			// cache hit never builds it.
			compute := func() (*compilecache.Artifacts, error) {
				nl, err := d.shardNetlist(sh)
				if err != nil {
					return nil, err
				}
				return d.placeAndRoute(ctx, nl)
			}
			if d.cfg.Cache != nil {
				r.art, r.hit, r.err = getOrComputeCtx(ctx, d.cfg.Cache, d.cacheKey(k), compute)
			} else {
				r.art, r.err = compute()
			}
		}(k, sh)
	}
	wg.Wait()
	stats := PRStats{Converged: true, FromCache: true, Chips: len(d.shards)}
	// Integer hop total over total nets: exactly one chip's MeanHops when
	// there is one chip.
	var hops, nets int
	for k, r := range results {
		if r.err != nil {
			return PRStats{}, d.shardErr(k, r.err)
		}
		art := r.art
		stats.ChipSide = max(stats.ChipSide, art.Chip.W)
		stats.Converged = stats.Converged && art.Route.Converged
		stats.Iterations += art.Route.Iterations
		for _, h := range art.Route.NetHops {
			hops += h
		}
		nets += len(art.Route.NetHops)
		stats.MaxHops = max(stats.MaxHops, art.Route.MaxHops())
		stats.ChannelsNeeded = max(stats.ChannelsNeeded, art.Route.MaxOccupancy)
		stats.PlacementMoves += art.PlacementMoves
		stats.WirelengthCost += art.WirelengthCost
		stats.Restarts = max(stats.Restarts, art.Restarts)
		stats.FromCache = stats.FromCache && r.hit
	}
	if nets > 0 {
		stats.MeanHops = float64(hops) / float64(nets)
	}
	d.prMu.Lock()
	for k, r := range results {
		d.shards[k].artifacts = r.art
	}
	d.prMu.Unlock()
	return stats, nil
}

// getOrComputeCtx is GetOrCompute with correct cancellation ownership
// under the cache's singleflight. Two cases need care: a caller that
// joined an in-flight computation must stop waiting when *its own* ctx
// is done (GetOrComputeCtx bounds the wait), and it can see the joined
// computation fail with the *computing* caller's ctx.Err(). A failed
// compute is never cached, so when the error is a context error that
// did not come from our own ctx, retry — the retry either finds the
// artifacts (someone else recomputed) or becomes the computing caller
// under our live ctx. Terminates because each retry with a live ctx
// either succeeds or computes itself.
func getOrComputeCtx(ctx context.Context, cache *CompileCache, key compilecache.Key, compute func() (*compilecache.Artifacts, error)) (*compilecache.Artifacts, bool, error) {
	for {
		art, hit, err := cache.c.GetOrComputeCtx(ctx, key, compute)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return art, hit, err
	}
}

// placeAndRoute is the uncached compile back end for one chip's netlist:
// portfolio placement then routing on a chip of the evaluated channel
// width (fabric.DefaultTracks), packaged as cacheable artifacts. ctx
// aborts either phase at its next checkpoint.
func (d *Deployment) placeAndRoute(ctx context.Context, nl *netlist.Netlist) (*compilecache.Artifacts, error) {
	chip, err := fabric.SizeFor(len(nl.Blocks), fabric.DefaultTracks, d.params)
	if err != nil {
		return nil, err
	}
	pl, pstats, err := place.Portfolio(ctx, nl, chip, d.cfg.Seed+1, place.PortfolioOptions{
		Runs:    d.cfg.PlacementSeeds,
		Workers: d.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	res, err := route.Route(ctx, nl, pl, chip, route.Options{Workers: d.cfg.Parallelism})
	if err != nil {
		if ctx.Err() == nil {
			err = fmt.Errorf("%w: %w", ErrUnroutable, err)
		}
		return nil, err
	}
	return &compilecache.Artifacts{
		Chip:           chip,
		Placement:      pl,
		Route:          res,
		PlacementMoves: pstats.TotalMoves,
		WirelengthCost: pstats.Best().FinalCost,
		Restarts:       len(pstats.Runs),
	}, nil
}

// cacheKey is one chip's content address: the model-structure
// fingerprint, the per-group duplication sub-vector of that chip, and the
// annealing seed knobs (every chip has the same channel width). Parallelism is
// deliberately absent — it never changes results — so one cache serves
// machines of any size; so are the knobs that merely *selected* the
// assignment (Duplication, MaxChips, ChipCapacity, ShardPolicy, the
// autotuner's candidate): the netlist is fully determined by the group
// range and its duplication vector, so two deployments that land on the
// same per-chip assignment — a uniform knob, an autotuned per-layer
// assignment, or two autotuner candidates sharing a shard — hit the same
// entry.
func (d *Deployment) cacheKey(shardIdx int) compilecache.Key {
	lo, hi := d.shards[shardIdx].lo, d.shards[shardIdx].hi
	var b strings.Builder
	fmt.Fprintf(&b, "dups=")
	for i, v := range d.alloc.Dup[lo:hi] {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, "|seed=%d|pseeds=%d|shardgroups=%d:%d", d.cfg.Seed, d.cfg.PlacementSeeds, lo, hi)
	if seg := d.cfg.Faults.cacheSegment(); seg != "" {
		// Fault penalties shift placement costs, so a faulted deployment's
		// artifacts must never collide with the ideal-device entry.
		fmt.Fprintf(&b, "|faults=%s", seg)
	}
	return compilecache.KeyFrom(d.model.graph.Fingerprint(), b.String())
}
