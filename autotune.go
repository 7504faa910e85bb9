package fpsa

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fpsa/internal/coreop"
	"fpsa/internal/mapper"
	"fpsa/internal/perf"
	"fpsa/internal/place"
	"fpsa/internal/shard"
)

// Objective selects what Autotune optimizes.
type Objective int

// Autotune objectives.
const (
	// MinLatency minimizes the perf model's single-sample pipeline
	// latency (PerfSummary.LatencyUS).
	MinLatency Objective = iota
	// MinEnergy minimizes the per-sample energy (PerfSummary.EnergyUJ).
	MinEnergy
	// MaxThroughputPerChip maximizes samples/s divided by the chip count
	// — the fleet-level metric a capacity-bound serving deployment cares
	// about.
	MaxThroughputPerChip
)

// String renders the objective the way fpsa-compile -autotune spells it.
func (o Objective) String() string {
	switch o {
	case MinLatency:
		return "min-latency"
	case MinEnergy:
		return "min-energy"
	case MaxThroughputPerChip:
		return "max-throughput-per-chip"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// ParseObjective parses an objective name (the String spellings, plus the
// short forms "latency", "energy", "throughput"). Unknown names are
// ErrInvalidArgument.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "min-latency", "latency":
		return MinLatency, nil
	case "min-energy", "energy":
		return MinEnergy, nil
	case "max-throughput-per-chip", "throughput", "throughput-per-chip":
		return MaxThroughputPerChip, nil
	}
	return 0, fmt.Errorf("%w: unknown objective %q (want min-latency, min-energy or max-throughput-per-chip)", ErrInvalidArgument, s)
}

// maximize reports whether larger objective values win.
func (o Objective) maximize() bool { return o == MaxThroughputPerChip }

// value extracts the objective's scalar from an evaluated summary.
func (o Objective) value(p PerfSummary) float64 {
	switch o {
	case MinEnergy:
		return p.EnergyUJ
	case MaxThroughputPerChip:
		chips := p.Chips
		if chips < 1 {
			chips = 1
		}
		return p.ThroughputSPS / float64(chips)
	default:
		return p.LatencyUS
	}
}

// AutotuneReport records what one Autotune search did and found. Every
// field is deterministic for a fixed seed at any worker count, which is
// what lets TestFidelity pin the LeNet sweep's reports in
// docs/FIDELITY.md; wall-clock is not recorded.
type AutotuneReport struct {
	Objective Objective
	// PEBudget is the resolved PE envelope the search spent within.
	PEBudget int
	// BaselineDup / BaselinePEs / BaselineValue describe the best
	// *uniform* duplication inside the same envelope and chip options —
	// the configuration today's global knob would pick.
	BaselineDup   int
	BaselinePEs   int
	BaselineValue float64
	// LayerDup is the winning per-layer assignment (nil when the best
	// uniform configuration won outright); Cuts/Chips its multi-chip
	// partition (Cuts empty on one chip); TunedPEs its PE spend;
	// TunedValue its perf-model objective value, comparable with
	// BaselineValue.
	LayerDup   map[string]int
	Cuts       []int
	Chips      int
	TunedPEs   int
	TunedValue float64
	// Improvement is the fractional objective gain of tuned over the
	// uniform baseline (0.24 = 24% lower latency/energy or higher
	// throughput/chip).
	Improvement float64
	// RoutedValue is the winner's objective value rescored with measured
	// hop counts after place & route (0 when refinement was disabled).
	RoutedValue float64
	// Search accounting: candidates generated, pruned without a full
	// oracle evaluation, evaluated, and place&routed (finalists);
	// CacheHits/CacheMisses count the compile-cache traffic of the
	// refinement phase — the memoized sub-compiles that keep full P&R
	// runs far below candidates evaluated.
	Candidates  int
	Pruned      int
	Evaluated   int
	Refined     int
	CacheHits   int64
	CacheMisses int64
}

// String renders the report.
func (r AutotuneReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "autotune %v: budget %d PEs, %d candidates (%d pruned, %d evaluated, %d refined, cache %d hit/%d miss)\n",
		r.Objective, r.PEBudget, r.Candidates, r.Pruned, r.Evaluated, r.Refined, r.CacheHits, r.CacheMisses)
	fmt.Fprintf(&b, "  uniform dup %d (%d PEs): %.4g\n", r.BaselineDup, r.BaselinePEs, r.BaselineValue)
	assign := "uniform (no per-layer gain)"
	if len(r.LayerDup) > 0 {
		layers := make([]string, 0, len(r.LayerDup))
		for name := range r.LayerDup {
			layers = append(layers, name)
		}
		sort.Strings(layers)
		parts := make([]string, len(layers))
		for i, name := range layers {
			parts[i] = fmt.Sprintf("%s=%d", name, r.LayerDup[name])
		}
		assign = strings.Join(parts, " ")
	}
	fmt.Fprintf(&b, "  tuned %s (%d PEs, %d chip(s)): %.4g  (%+.1f%%)\n",
		assign, r.TunedPEs, r.Chips, r.TunedValue, 100*r.Improvement)
	if r.RoutedValue != 0 {
		fmt.Fprintf(&b, "  routed winner rescored: %.4g\n", r.RoutedValue)
	}
	return b.String()
}

// tuneCandidate is one point of the search space: a per-layer (or
// uniform) duplication assignment plus a chip partition.
type tuneCandidate struct {
	layerDup  map[string]int    // per-layer realization; nil for the uniform family
	uniformD  int               // > 0 marks the uniform family (the baseline)
	alloc     mapper.Allocation // one replica's per-group copies, and the replica count
	cuts      []int             // interior cut positions; nil = single chip
	cutWidths []int
	chips     int

	perf  PerfSummary
	value float64
	ok    bool
}

// pes is the candidate's whole spend, replicas included.
func (c *tuneCandidate) pes() int { return c.alloc.TotalPEs * c.alloc.Replicas }

// Autotune searches per-layer duplication assignments and shard cut
// points for the configuration that optimizes the given perf-model
// objective within a PE envelope, and returns it deployed. The uniform
// WithDuplication policy quantizes spend coarsely — between its sweet
// spots a per-layer assignment buys strictly more parallelism from the
// same PEs — and the search exploits exactly that: candidates are the
// distinct per-layer minimal assignments across iteration targets (plus
// saturation variants that unbuffer cheap layers, plus multi-chip cut
// variants under WithChips/WithChipCapacity), scored with internal/perf
// as the cost oracle on the PR 2 portfolio worker pool, dominated
// candidates pruned by an optimistic bound before evaluation. The top
// finalists are then placed & routed through the compile cache
// (WithAutotuneRefine; memoized per-shard sub-compiles keep full P&R runs
// far below candidates evaluated) and rescored with measured hop counts
// before the winner is chosen. Compile's checks and defaults apply, and
// the returned deployment is built from the winning candidate's own
// allocation and cut, so its Performance is the report's TunedValue.
//
// The envelope comes from WithPEBudget, or WithChipCapacity × WithChips,
// or — by default — the uniform WithDuplication spend, whole-model
// replicas included. The uniform family itself is searched as the
// baseline, so the report's Improvement is
// tuned-vs-best-uniform under identical constraints, and the tuned
// deployment is never worse than uniform on the oracle's account.
//
// The search is deterministic for a fixed seed at any WithParallelism
// worker count: candidate generation is seedless, evaluation waves are
// index-ordered with a barrier between them, and every tie breaks toward
// the earlier candidate. ctx cancellation aborts between waves (and
// inside place & route per the PR 5 invariants) with ctx.Err().
func Autotune(ctx context.Context, m Model, objective Objective, opts ...Option) (*Deployment, AutotuneReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	set := applyOptions(opts)
	rep := AutotuneReport{Objective: objective}
	switch objective {
	case MinLatency, MinEnergy, MaxThroughputPerChip:
	default:
		return nil, rep, fmt.Errorf("%w: unknown objective %v", ErrInvalidArgument, objective)
	}
	if set.peBudget < 0 {
		return nil, rep, fmt.Errorf("%w: WithPEBudget(%d): value must be ≥ 0 (0 = derive from chips or duplication)", ErrInvalidArgument, set.peBudget)
	}
	if set.refine < 0 {
		return nil, rep, fmt.Errorf("%w: WithAutotuneRefine(%d): value must be ≥ 0 (0 = oracle only)", ErrInvalidArgument, set.refine)
	}
	fe, err := newFrontEnd(ctx, m, set)
	if err != nil {
		return nil, rep, err
	}

	budget, err := resolveBudget(fe, set.peBudget)
	if err != nil {
		return nil, rep, err
	}
	rep.PEBudget = budget

	cands := generateCandidates(fe.co, fe.cfg, objective, budget)
	rep.Candidates = len(cands)
	if len(cands) == 0 {
		return nil, rep, fmt.Errorf("%w: no feasible assignment of %s within %d PEs", ErrCapacity, m.Name(), budget)
	}

	if err := evaluateCandidates(ctx, fe, objective, cands, &rep); err != nil {
		return nil, rep, err
	}

	// Oracle winner and the uniform baseline, both by index-ordered scan
	// so ties are deterministic.
	best, bestUniform := -1, -1
	for i, c := range cands {
		if !c.ok {
			continue
		}
		if best < 0 || betterValue(objective, c.value, cands[best].value) {
			best = i
		}
		if c.uniformD > 0 && (bestUniform < 0 || betterValue(objective, c.value, cands[bestUniform].value)) {
			bestUniform = i
		}
	}
	if best < 0 {
		return nil, rep, fmt.Errorf("%w: no candidate of %s evaluated successfully", ErrCapacity, m.Name())
	}
	if bestUniform >= 0 {
		rep.BaselineDup = cands[bestUniform].uniformD
		rep.BaselinePEs = cands[bestUniform].pes()
		rep.BaselineValue = cands[bestUniform].value
	}

	// Refinement: place & route the top finalists through the compile
	// cache and rescore them with measured hop counts. Finalist order is
	// (objective value, candidate index) — deterministic.
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.ok {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return betterValue(objective, cands[order[a]].value, cands[order[b]].value)
	})
	winner := best
	var winnerDep *Deployment
	if set.refine > 0 {
		cache := fe.cfg.Cache
		if cache == nil {
			// The finalists still share per-shard sub-compiles with each
			// other through a search-local cache.
			cache = NewCompileCache(0)
		}
		h0, m0 := cache.Counters()
		k := set.refine
		if k > len(order) {
			k = len(order)
		}
		bestRouted := -1
		for fi := 0; fi < k; fi++ {
			if err := ctx.Err(); err != nil {
				return nil, rep, err
			}
			i := order[fi]
			d, err := fe.deployCandidate(cands[i], cache)
			if err != nil {
				return nil, rep, fmt.Errorf("fpsa: autotune: refining candidate %d: %w", i, err)
			}
			stats, err := d.PlaceAndRoute(ctx)
			if err != nil {
				return nil, rep, fmt.Errorf("fpsa: autotune: refining candidate %d: %w", i, err)
			}
			ps, err := d.PerformanceWithHops(int(stats.MeanHops + 0.5))
			if err != nil {
				return nil, rep, fmt.Errorf("fpsa: autotune: refining candidate %d: %w", i, err)
			}
			rep.Refined++
			routed := objective.value(ps)
			if bestRouted < 0 || betterValue(objective, routed, rep.RoutedValue) {
				bestRouted = i
				rep.RoutedValue = routed
				winnerDep = d
			}
		}
		winner = bestRouted
		h1, m1 := cache.Counters()
		rep.CacheHits, rep.CacheMisses = h1-h0, m1-m0
	}

	win := cands[winner]
	rep.TunedValue = win.value
	rep.TunedPEs = win.pes()
	rep.Chips = win.chips
	rep.Cuts = append([]int(nil), win.cuts...)
	if win.uniformD == 0 {
		rep.LayerDup = copyIntMap(win.layerDup)
	}
	if bestUniform >= 0 && rep.BaselineValue != 0 {
		if objective.maximize() {
			rep.Improvement = rep.TunedValue/rep.BaselineValue - 1
		} else {
			rep.Improvement = 1 - rep.TunedValue/rep.BaselineValue
		}
	}
	if winnerDep == nil {
		winnerDep, err = fe.deployCandidate(win, fe.cfg.Cache)
		if err != nil {
			return nil, rep, fmt.Errorf("fpsa: autotune: building winner: %w", err)
		}
	}
	return winnerDep, rep, nil
}

// resolveBudget picks the PE envelope: explicit WithPEBudget, else the
// chip fleet's capacity, else the uniform WithDuplication spend,
// whole-model replicas included.
func resolveBudget(fe *frontEnd, peBudget int) (int, error) {
	if peBudget > 0 {
		return peBudget, nil
	}
	if cap := fe.cfg.ChipCapacity; cap > 0 {
		return cap * fe.cfg.MaxChips, nil
	}
	alloc, err := mapper.Allocate(fe.co, fe.cfg.Duplication)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrCapacity, err)
	}
	return alloc.TotalPEs * alloc.Replicas, nil
}

// layerRun is one model layer's contiguous group slice.
type layerRun struct {
	name   string
	groups []int // indices into co.Groups
}

// layerRuns collects the distinct layers in first-appearance order.
func layerRuns(co *coreop.Graph) []layerRun {
	var runs []layerRun
	index := map[string]int{}
	for gi, grp := range co.Groups {
		li, ok := index[grp.Layer]
		if !ok {
			li = len(runs)
			index[grp.Layer] = li
			runs = append(runs, layerRun{name: grp.Layer})
		}
		runs[li].groups = append(runs[li].groups, gi)
	}
	return runs
}

// generateCandidates enumerates the search space within the budget:
//
//   - the uniform family (every distinct Allocate outcome, plus
//     whole-model replicas when the budget allows) — the baseline;
//   - per-layer minimal assignments: for each achievable iteration
//     target T, every layer gets just enough copies to finish in ≤ T
//     iterations, deduplicated across T;
//   - saturation variants (latency/energy objectives only): leftover
//     budget raises cheap layers to full duplication, removing their
//     buffers from the fill path and energy account;
//   - multi-chip variants of each assignment under WithChips, at every
//     chip count and both cut policies, deduplicated by cut positions.
//
// Dominated candidates — same cuts, no better iteration bound, no
// cheaper spend — are dropped for the throughput objective, where the
// oracle provably cannot rank them higher.
func generateCandidates(co *coreop.Graph, cfg config, objective Objective, budget int) []*tuneCandidate {
	maxReuse := co.MaxReuse()
	runs := layerRuns(co)
	var cands []*tuneCandidate
	seen := map[string]bool{}

	add := func(c *tuneCandidate) {
		key := fmt.Sprintf("u%d|%v|%v", c.uniformD, c.alloc.Dup, c.cuts)
		if seen[key] {
			return
		}
		seen[key] = true
		cands = append(cands, c)
	}

	capOK := func(pes int) bool { return cfg.ChipCapacity <= 0 || pes <= cfg.ChipCapacity }

	// Chip variants of one assignment: single chip only when it fits the
	// capacity, then its cuts.
	expandChips := func(base *tuneCandidate) {
		if capOK(base.pes()) {
			add(base)
		}
		for _, c := range cutVariants(co, cfg, base) {
			add(c)
		}
	}

	// Uniform family: every distinct Allocate outcome within budget, and
	// whole-model sample-parallel replicas once duplication saturates.
	uniformDs := map[int]bool{}
	for t := 1; t <= maxReuse; t++ {
		uniformDs[(maxReuse+t-1)/t] = true
	}
	ds := make([]int, 0, len(uniformDs))
	for d := range uniformDs {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var fullSpend int
	for _, grp := range co.Groups {
		fullSpend += grp.Reuse
	}
	for r := 2; r*fullSpend <= budget; r++ {
		ds = append(ds, r*maxReuse)
	}
	for _, d := range ds {
		alloc, err := mapper.Allocate(co, d)
		if err != nil {
			continue
		}
		c := &tuneCandidate{uniformD: d, alloc: alloc, chips: 1}
		if c.pes() <= budget {
			expandChips(c)
		}
	}

	// Per-layer minimal assignments across iteration targets.
	for t := 1; t <= maxReuse; t++ {
		layerDup := make(map[string]int, len(runs))
		for _, run := range runs {
			d := 1
			for _, gi := range run.groups {
				d = max(d, (co.Groups[gi].Reuse+t-1)/t)
			}
			layerDup[run.name] = d
		}
		assign := make([]int, len(co.Groups))
		for gi, grp := range co.Groups {
			assign[gi] = layerDup[grp.Layer] // AllocateVector clamps to the reuse degree
		}
		alloc, err := mapper.AllocateVector(co, assign)
		if err != nil || alloc.TotalPEs > budget {
			continue
		}
		expandChips(&tuneCandidate{layerDup: layerDup, alloc: alloc, chips: 1})

		// Saturation variant: spend the leftover envelope unbuffering the
		// cheapest layers (iterations collapse to 1, dropping their SMB
		// charge and fill wait). Throughput cannot benefit — skip there.
		if objective == MaxThroughputPerChip {
			continue
		}
		type satCost struct{ li, cost int }
		costs := make([]satCost, 0, len(runs))
		for li, run := range runs {
			cost := 0
			for _, gi := range run.groups {
				cost += co.Groups[gi].Reuse - alloc.Dup[gi]
			}
			if cost > 0 {
				costs = append(costs, satCost{li, cost})
			}
		}
		sort.Slice(costs, func(a, b int) bool {
			if costs[a].cost != costs[b].cost {
				return costs[a].cost < costs[b].cost
			}
			return costs[a].li < costs[b].li
		})
		satAssign := append([]int(nil), alloc.Dup...)
		satDup := copyIntMap(layerDup)
		satPEs := alloc.TotalPEs
		applied := false
		for _, sc := range costs {
			if satPEs+sc.cost > budget {
				continue
			}
			run := runs[sc.li]
			for _, gi := range run.groups {
				satPEs += co.Groups[gi].Reuse - satAssign[gi]
				satAssign[gi] = co.Groups[gi].Reuse
			}
			dmax := 0
			for _, gi := range run.groups {
				if co.Groups[gi].Reuse > dmax {
					dmax = co.Groups[gi].Reuse
				}
			}
			satDup[run.name] = dmax
			applied = true
		}
		if applied {
			if sat, err := mapper.AllocateVector(co, satAssign); err == nil {
				expandChips(&tuneCandidate{layerDup: satDup, alloc: sat, chips: 1})
			}
		}
	}

	if objective == MaxThroughputPerChip {
		cands = pruneDominatedThroughput(cands)
	}
	return cands
}

// cutVariants are base's multi-chip variants under cfg: its searched cut
// at every chip count WithChips allows and both cut policies, with the cut
// traffic the partitioner accounts for it. A replicated pipeline has none:
// the partitioner models one copy of the chain.
func cutVariants(co *coreop.Graph, cfg config, base *tuneCandidate) []*tuneCandidate {
	if cfg.MaxChips <= 1 || base.alloc.Replicas > 1 {
		return nil
	}
	weights, signals := shardChain(co.Groups, base.alloc.Dup)
	var out []*tuneCandidate
	for k := 2; k <= min(cfg.MaxChips, len(co.Groups)); k++ {
		for _, policy := range []shard.Policy{shard.PolicyMinCut, shard.PolicyBalanced} {
			plan, err := shard.Partition(weights, signals, nil, shard.Options{
				Chips:    k,
				Capacity: cfg.ChipCapacity,
				Policy:   policy,
			})
			if err != nil {
				continue
			}
			c := *base
			c.cuts = plan.Bounds[1:k]
			c.cutWidths = plan.CutTraffic
			c.chips = k
			out = append(out, &c)
		}
	}
	return out
}

// pruneDominatedThroughput drops candidates another candidate dominates
// for the throughput objective: identical cut positions (so identical
// link stages and chip count), an iteration bound no better, and no
// uniform-family replicas in play. Throughput is a function of the
// bottleneck iteration count and the links alone, so the dominated
// candidate provably cannot rank strictly higher; ties already break
// toward the earlier candidate.
func pruneDominatedThroughput(cands []*tuneCandidate) []*tuneCandidate {
	type groupKey struct {
		cuts string
		repl int
	}
	bestIter := map[groupKey]int{}
	keyOf := func(c *tuneCandidate) groupKey {
		repl := 0
		if c.uniformD > 0 {
			repl = c.uniformD
		}
		return groupKey{fmt.Sprint(c.cuts), repl}
	}
	for _, c := range cands {
		k := keyOf(c)
		if it, ok := bestIter[k]; !ok || c.alloc.MaxIterations() < it {
			bestIter[k] = c.alloc.MaxIterations()
		}
	}
	kept := cands[:0]
	for _, c := range cands {
		if c.alloc.MaxIterations() > bestIter[keyOf(c)] {
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// betterValue reports whether a beats b for the objective (strictly — a
// tie is not an improvement, so earlier candidates win ties).
func betterValue(o Objective, a, b float64) bool {
	if o.maximize() {
		return a > b
	}
	return a < b
}

// evaluateCandidates scores every candidate with the perf oracle on the
// portfolio worker pool, in index-ordered waves with a barrier between
// them: pruning compares a candidate's optimistic bound against the best
// value among *completed* waves only, so the outcome is identical at any
// worker count. ctx cancellation aborts between waves.
func evaluateCandidates(ctx context.Context, fe *frontEnd, objective Objective, cands []*tuneCandidate, rep *AutotuneReport) error {
	// The FPSA stage time is assignment-independent (comp and the
	// calibrated comm are both fixed), so maxIter×stage plus the known
	// link stages is a sound optimistic bound for latency and throughput.
	// Energy has no useful cheap bound (the PE term is
	// assignment-independent and the rest needs the netlist) — those
	// candidates always evaluate.
	_, _, stageNS := perf.FPSAStageNS(fe.params, fe.params.TypicalRouteHops)
	link := shard.Link{SignalBits: fe.params.IOBits}
	bound := func(c *tuneCandidate) (float64, bool) {
		bottleneck := float64(c.alloc.MaxIterations()) * stageNS
		var linkSum float64
		for _, w := range c.cutWidths {
			t := link.TransferNS(w)
			linkSum += t
			if t > bottleneck {
				bottleneck = t
			}
		}
		switch objective {
		case MinLatency:
			return (bottleneck + linkSum) * 1e-3, true
		case MaxThroughputPerChip:
			return float64(c.alloc.Replicas) / (bottleneck * 1e-9) / float64(c.chips), true
		}
		return 0, false
	}

	pool := place.NewPool(fe.cfg.Parallelism)
	const wave = 32
	hasBest := false
	var bestVal float64
	for lo := 0; lo < len(cands); lo += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + wave
		if hi > len(cands) {
			hi = len(cands)
		}
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if hasBest {
				if b, ok := bound(cands[i]); ok && !betterValue(objective, b, bestVal) {
					rep.Pruned++
					continue
				}
			}
			ids = append(ids, i)
		}
		pool.Each(ids, func(i int) {
			c := cands[i]
			p, err := evaluatePerf(fe.model, fe.co, fe.params, max(c.uniformD, 1), c.alloc.Dup, c.cutWidths, 0)
			if err != nil {
				return
			}
			c.perf = p
			c.value = objective.value(c.perf)
			c.ok = true
		})
		for _, i := range ids {
			c := cands[i]
			if !c.ok {
				continue
			}
			rep.Evaluated++
			if !hasBest || betterValue(objective, c.value, bestVal) {
				hasBest, bestVal = true, c.value
			}
		}
	}
	return nil
}

// deployCandidate builds a scored candidate's deployment: its allocation,
// cuts and cut traffic, at the duplication its value was evaluated at, so
// the deployment's Performance is the candidate's. Artifacts go to cache,
// where other candidates sharing a shard find them.
func (fe *frontEnd) deployCandidate(c *tuneCandidate, cache *CompileCache) (*Deployment, error) {
	cfg := fe.cfg
	cfg.Duplication = max(c.uniformD, 1)
	cfg.Cache = cache
	bounds := append(append([]int{0}, c.cuts...), len(fe.co.Groups))
	return fe.deploy(cfg, c.alloc, bounds, c.cutWidths)
}
