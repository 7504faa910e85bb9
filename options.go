package fpsa

import (
	"fpsa/internal/device"
)

// WeightSource supplies trained float weights per MAC layer name (see
// Model.WeightLayers): FC layers are [in][out] matrices, ungrouped
// convolutions [K²·Cin][OutC] with rows ordered (channel, ky, kx). A nil
// return for a layer means no weights for it. Pooling, residual adds,
// flatten and ReLU need no weights; grouped convolutions and LRN are not
// supported functionally. Tensors flatten CHW: signal (c, y, x) is input
// index (c·H + y)·W + x.
type WeightSource func(layer string) [][]float64

// compileSettings is what the compile Options assemble: the config plus
// everything that flows from compile to execution beside it (the
// functional weights).
type compileSettings struct {
	cfg     config
	weights WeightSource

	// Autotune-only knobs (ignored by a plain Compile): the PE envelope
	// the search may spend, and how many finalists it places & routes.
	peBudget  int
	refine    int
	refineSet bool

	// faultModelSet/faultMapSet record which fault option populated
	// cfg.Faults, so Compile can reject the conflicting combination of
	// WithFaultModel and WithFaultMap instead of silently letting the
	// later option win.
	faultModelSet bool
	faultMapSet   bool
}

// Option configures Compile. Options are applied in order, so a later
// option overrides an earlier one; a nil Option is ignored.
type Option func(*compileSettings)

// WithDuplication sets the model duplication degree (§5.2 of the paper);
// the default is 1×.
func WithDuplication(n int) Option {
	return func(s *compileSettings) { s.cfg.Duplication = n }
}

// WithTracks overrides the routing channel width (default 2048).
func WithTracks(n int) Option {
	return func(s *compileSettings) { s.cfg.Tracks = n }
}

// WithLayerDuplication assigns per-layer duplication degrees, keyed by
// model layer name (see Model.WeightLayers): every weight group of an
// assigned layer receives that many PE copies (clamped to its reuse
// degree), while unassigned layers follow WithDuplication. This is the
// knob behind Autotune's output — a uniform map is bit-exact with the
// equivalent global WithDuplication. Degrees must be ≥ 1 and name layers
// the model has; Compile rejects anything else with ErrInvalidArgument.
func WithLayerDuplication(layerDup map[string]int) Option {
	return func(s *compileSettings) { s.cfg.LayerDup = copyIntMap(layerDup) }
}

// WithShardCuts pins the multi-chip partition at exactly these group-chain
// cut positions (strictly increasing, each inside the group chain),
// bypassing the partition search; len(cuts)+1 chips result and WithChips
// need not be repeated. This is how Autotune replays a searched cut; most
// callers want WithChips/WithChipCapacity instead. Compile rejects
// non-increasing or out-of-range cuts with ErrInvalidArgument.
func WithShardCuts(cuts ...int) Option {
	return func(s *compileSettings) { s.cfg.ShardCuts = append([]int(nil), cuts...) }
}

// WithPEBudget sets the PE envelope Autotune may spend across the whole
// deployment (all chips together). 0 — the default — derives the
// envelope: WithChipCapacity × WithChips when a capacity is set,
// otherwise the uniform WithDuplication spend, so an un-budgeted search
// answers "same spend, better assignment". Plain Compile ignores it.
func WithPEBudget(n int) Option {
	return func(s *compileSettings) { s.peBudget = n }
}

// WithAutotuneRefine sets how many of Autotune's oracle-ranked finalists
// are actually placed & routed (through the compile cache) to rescore
// them with measured hop counts before the winner is chosen. 0 trusts
// the oracle ranking and skips place & route entirely; the default is 2.
// Plain Compile ignores it.
func WithAutotuneRefine(k int) Option {
	return func(s *compileSettings) { s.refine = k; s.refineSet = true }
}

// copyIntMap defensively copies an option's map so later caller mutation
// cannot alias into the compiled deployment. nil and empty stay nil.
func copyIntMap(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// FaultMap describes a deployment's non-ideal device scenario: a
// deterministic population of stuck ReRAM cells plus optional analog
// degradations, all derived from the seed so the same FaultMap always
// yields the same faulted hardware (any worker count, any chip count).
type FaultMap struct {
	// Rate is the stuck-cell probability per crossbar cell, in [0, 1].
	Rate float64
	// Seed drives the per-crossbar fault draws. Two deployments with the
	// same FaultMap see bit-identical fault populations.
	Seed int64
	// StuckHighFrac is the fraction of stuck cells pinned at maximum
	// conductance rather than zero (0 = the default, an even 0.5 split).
	StuckHighFrac float64
	// Drift scales every programmed conductance by (1 − Drift), modeling
	// time-dependent conductance decay; must be in [0, 1).
	Drift float64
	// ReadSigma adds a static Gaussian read-variation offset (stddev in
	// conductance units) to each programmed conductance; must be ≥ 0.
	ReadSigma float64
	// LayerSeeds overrides Seed for named model layers, letting an
	// experiment re-roll one layer's faults while the rest stay fixed.
	// Seeds must be ≥ 0 and name layers the model has.
	LayerSeeds map[string]int64
	// NoRemap disables the compiler's spare-row/column remapping, so
	// stuck cells land on live weights — the "without remapping" arm of
	// the reliability experiment.
	NoRemap bool
}

// active reports whether the map perturbs anything at all. An inactive
// (or nil) FaultMap compiles and executes bit-identically to no map.
func (f *FaultMap) active() bool {
	return f != nil && (f.Rate > 0 || f.Drift > 0 || f.ReadSigma > 0)
}

// deviceModel lowers the public FaultMap to the internal fault model the
// mapper and executors share. Inactive maps lower to nil. Compile calls it
// once per Deployment: the model remembers the masks it derives, so a
// second lowering would be a second memo.
func (f *FaultMap) deviceModel() *device.FaultModel {
	if !f.active() {
		return nil
	}
	return &device.FaultModel{
		Rate:      f.Rate,
		Seed:      f.Seed,
		HighFrac:  f.StuckHighFrac,
		Drift:     f.Drift,
		ReadSigma: f.ReadSigma,
		Seeds:     copyInt64Map(f.LayerSeeds),
		Remap:     !f.NoRemap,
	}
}

// clone deep-copies the map so later caller mutation cannot alias into
// the compiled deployment.
func (f *FaultMap) clone() *FaultMap {
	if f == nil {
		return nil
	}
	c := *f
	c.LayerSeeds = copyInt64Map(f.LayerSeeds)
	return &c
}

// WithFaultModel injects stuck-at cell faults at the given per-cell rate,
// drawn deterministically from seed, with spare-row/column remapping
// enabled — the simple form of WithFaultMap. Rate 0 is bit-identical to
// no fault model. Conflicts with WithFaultMap (ErrInvalidArgument).
func WithFaultModel(rate float64, seed int64) Option {
	return func(s *compileSettings) {
		s.cfg.Faults = &FaultMap{Rate: rate, Seed: seed}
		s.faultModelSet = true
	}
}

// WithFaultMap injects the full non-ideal device scenario — stuck cells,
// drift, read variation, per-layer seeds, optional remap opt-out. The
// compiler steers known-bad rows/columns around spare ones (unless
// m.NoRemap), penalizes placement of heavily-faulted PEs, and keys the
// compile cache on the scenario so faulted and ideal artifacts never
// collide. Conflicts with WithFaultModel (ErrInvalidArgument).
func WithFaultMap(m FaultMap) Option {
	return func(s *compileSettings) {
		s.cfg.Faults = m.clone()
		s.faultMapSet = true
	}
}

// copyInt64Map is copyIntMap for int64-valued maps (layer seed overrides).
func copyInt64Map(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WithSeed fixes the deployment's seed: it drives placement annealing
// and seeds the programming-variation stream of nets derived with
// Deployment.NewNet.
func WithSeed(seed int64) Option {
	return func(s *compileSettings) { s.cfg.Seed = seed }
}

// WithPlacementSeeds sets the multi-seed annealing portfolio size
// PlaceAndRoute runs (≤ 1 = a single run): portfolio run i anneals
// independently with seed WithSeed+1+i and the cheapest placement wins
// deterministically.
func WithPlacementSeeds(n int) Option {
	return func(s *compileSettings) { s.cfg.PlacementSeeds = n }
}

// WithParallelism bounds the worker goroutines PlaceAndRoute uses for
// both the annealing portfolio and per-iteration net routing
// (0 = GOMAXPROCS). It changes wall-clock only, never results.
func WithParallelism(n int) Option {
	return func(s *compileSettings) { s.cfg.Parallelism = n }
}

// WithCache memoizes placement/routing/bitstream artifacts in the given
// content-addressed cache: a cache-hit PlaceAndRoute skips both phases
// entirely. Share one cache across every Compile in the process (see
// NewCompileCache).
func WithCache(c *CompileCache) Option {
	return func(s *compileSettings) { s.cfg.Cache = c }
}

// WithChips allows the deployment to span up to n chips (≤ 1 = the
// classic single-chip compile). A model whose PE demand exceeds
// WithChipCapacity is an error on one chip; with n ≥ 2 the core-op graph
// is partitioned across chips instead and each chip is placed, routed
// and configured independently. Engines derived with Deployment.NewEngine
// inherit the realized chip count, so the served pipeline always matches
// the compiled partition.
func WithChips(n int) Option {
	return func(s *compileSettings) { s.cfg.MaxChips = n }
}

// WithChipCapacity bounds one chip's PE count (0 = unbounded); with
// WithChips the model shards onto the fewest chips that fit.
func WithChipCapacity(n int) Option {
	return func(s *compileSettings) { s.cfg.ChipCapacity = n }
}

// WithShardPolicy selects the objective of the compiled chip partition:
// ShardAuto (the default) and ShardMinCut minimize inter-chip traffic,
// ShardBalanced the heaviest chip's load. Engines derived with
// Deployment.NewEngine serve the compiled chip count and always cut
// their stage list balanced — pipeline throughput is set by the slowest
// chip, and outputs are bit-identical under every cut.
func WithShardPolicy(p ShardPolicy) Option {
	return func(s *compileSettings) { s.cfg.ShardPolicy = p }
}

// WithWeights registers trained weights with the deployment, keyed by
// MAC layer name, so Deployment.NewNet and Deployment.NewEngine can
// derive a runnable SpikingNet without re-supplying them.
func WithWeights(weights map[string][][]float64) Option {
	if weights == nil {
		return func(*compileSettings) {}
	}
	return WithWeightSource(func(layer string) [][]float64 { return weights[layer] })
}

// WithWeightSource registers a weight source with the deployment — the
// functional-closure form of WithWeights (see TrainedMLP.WeightSource).
func WithWeightSource(src WeightSource) Option {
	return func(s *compileSettings) { s.weights = src }
}

// EngineOption configures Deployment.NewEngine. Options are applied in
// order; a nil EngineOption is ignored. How many chips the engine serves
// is not an option: it is the deployment's compiled count (see WithChips).
type EngineOption func(*engineConfig)

// WithWorkers sets how many programmed executors requests can borrow at
// once — each holds its own simulation state — and so how many requests
// run in parallel (default 4).
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.Workers = n }
}

// WithMaxBatch sets the chunk size a ClassifyBatch call is cut into, and
// so the most samples one batched kernel pass carries (default 8).
func WithMaxBatch(n int) EngineOption {
	return func(c *engineConfig) { c.MaxBatch = n }
}

// WithMode selects the execution semantics (default ModeSpiking, the
// serving default).
func WithMode(m ExecMode) EngineOption {
	return func(c *engineConfig) { c.Mode = m }
}
