// Package shard partitions a chip-sized workload across multiple FPSA
// chips. The paper (§5) compiles one model onto one reconfigurable
// fabric; this package supplies the scale axis beyond it: given a
// topologically ordered chain of work items (core-op weight groups on the
// compile path, executable program stages on the serving path), it cuts
// the chain into per-chip segments so that every chip fits its capacity
// and the signal traffic crossing inter-chip links is minimal.
//
// The partitioner is a chain-partitioning dynamic program, not a
// heuristic: for k chips it returns an exact optimum of the selected
// policy — PolicyMinCut minimizes the total signal width crossing chip
// boundaries (each signal is charged once per link it traverses, which is
// what the link occupies), PolicyBalanced minimizes the largest per-chip
// load so the chip-level pipeline's bottleneck stage is as small as
// possible. Ties break toward the other objective and then toward the
// earliest cut positions, so results are fully deterministic: the same
// inputs produce the same Plan on any machine, which is what lets sharded
// compile artifacts live in the content-addressed deployment cache.
//
// Contiguity is not a restriction in practice: both chains this package
// partitions are topologically ordered, so a contiguous segmentation
// always yields a feed-forward chip pipeline (signals only ever flow from
// earlier chips to later ones), the shape the hardware's chip pipeline
// needs.
package shard

import "fmt"

// Policy selects the partitioning objective.
type Policy int

// Policies.
const (
	// PolicyMinCut minimizes total inter-chip signal traffic, breaking
	// ties toward balanced loads. The compile path's default: link wires
	// and transfer energy are the scarce resource.
	PolicyMinCut Policy = iota
	// PolicyBalanced minimizes the maximum per-chip load, breaking ties
	// toward less traffic. The serving pipeline's default: steady-state
	// throughput is one batch per bottleneck chip.
	PolicyBalanced
)

// String renders the policy the way the CLIs spell it.
func (p Policy) String() string {
	switch p {
	case PolicyMinCut:
		return "mincut"
	case PolicyBalanced:
		return "balanced"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Signal is one producer→consumers data dependency along the chain: a bus
// of Width logical signals produced by item Prod (or the external input,
// Prod = -1) and last consumed by item Last. The signal crosses — and is
// charged against — every cut c with Prod < c ≤ Last.
type Signal struct {
	Prod  int // producing item index, or -1 for the external input
	Last  int // last consuming item index (≥ Prod)
	Width int // logical signal count carried
}

// Options configures one partition.
type Options struct {
	// Chips is the exact number of segments wanted. Partition fails if
	// the chain cannot be cut into this many non-empty legal segments;
	// callers that can degrade (fewer chips) or escalate (more chips)
	// retry at other counts.
	Chips int
	// Capacity bounds each segment's total item weight (0 = unbounded).
	Capacity int
	// Policy selects the objective (default PolicyMinCut).
	Policy Policy
}

// Plan is one partition of n chain items into Chips() contiguous
// segments: segment k holds items [Bounds[k], Bounds[k+1]).
type Plan struct {
	// Bounds has Chips()+1 entries; Bounds[0] = 0 and the last entry = n.
	Bounds []int
	// Loads[k] is segment k's total item weight.
	Loads []int
	// CutTraffic[k] is the signal width crossing the cut between segment
	// k and k+1 (len Chips()-1) — the traffic on that inter-chip link.
	CutTraffic []int
}

// Chips returns the number of segments.
func (p *Plan) Chips() int { return len(p.Bounds) - 1 }

// ShardOf returns the segment holding item i.
func (p *Plan) ShardOf(i int) int {
	for k := 1; k < len(p.Bounds); k++ {
		if i < p.Bounds[k] {
			return k - 1
		}
	}
	return p.Chips() - 1
}

// TotalCutTraffic sums the traffic over every inter-chip link.
func (p *Plan) TotalCutTraffic() int {
	total := 0
	for _, t := range p.CutTraffic {
		total += t
	}
	return total
}

// MaxCutTraffic returns the busiest link's signal width (0 for a single
// segment).
func (p *Plan) MaxCutTraffic() int {
	max := 0
	for _, t := range p.CutTraffic {
		if t > max {
			max = t
		}
	}
	return max
}

// MaxLoad returns the heaviest segment's weight.
func (p *Plan) MaxLoad() int {
	max := 0
	for _, l := range p.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// cost is the lexicographic DP objective: primary then secondary,
// compared in order.
type cost struct{ primary, secondary int }

func (c cost) less(o cost) bool {
	if c.primary != o.primary {
		return c.primary < o.primary
	}
	return c.secondary < o.secondary
}

// Partition cuts a chain of len(weights) items into exactly opts.Chips
// contiguous non-empty segments. signals carries the chain's data
// dependencies (see Signal); illegal, when non-nil, marks cut positions
// that must not be used — illegal[c] forbids a boundary between items c-1
// and c, the way a weight group shared by a run of program stages pins
// those stages to one chip. len(illegal) must be len(weights)+1 when
// supplied; positions 0 and n are the chain ends and never consulted.
//
// The result is the exact optimum of opts.Policy and is deterministic —
// independent of map iteration, goroutine scheduling, or machine.
func Partition(weights []int, signals []Signal, illegal []bool, opts Options) (*Plan, error) {
	n := len(weights)
	k := opts.Chips
	if n == 0 {
		return nil, fmt.Errorf("shard: empty chain")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: chip count %d must be ≥ 1", k)
	}
	if k > n {
		return nil, fmt.Errorf("shard: cannot cut %d items into %d non-empty segments", n, k)
	}
	if illegal != nil && len(illegal) != n+1 {
		return nil, fmt.Errorf("shard: illegal mask has %d entries, want %d", len(illegal), n+1)
	}
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("shard: item %d has negative weight %d", i, w)
		}
	}

	// Prefix weights and per-cut traffic. traffic[c] is the total signal
	// width crossing a cut between items c-1 and c: every signal with
	// Prod < c ≤ Last, accumulated with a difference array.
	prefW := make([]int, n+1)
	for i, w := range weights {
		prefW[i+1] = prefW[i] + w
	}
	diff := make([]int, n+2)
	for _, s := range signals {
		if s.Width < 0 || s.Prod < -1 || s.Prod >= n || s.Last < s.Prod || s.Last >= n {
			return nil, fmt.Errorf("shard: signal %+v outside chain of %d items", s, n)
		}
		diff[s.Prod+1] += s.Width
		diff[s.Last+1] -= s.Width
	}
	traffic := make([]int, n+1)
	run := 0
	for c := 0; c <= n; c++ {
		run += diff[c]
		traffic[c] = run
	}

	// DP over (segments used, items consumed). best[s][i] is the optimal
	// cost of cutting items [0, i) into s segments; from[s][i] the start
	// of the last segment. Scanning j ascending with strict improvement
	// keeps the earliest cut positions on ties — determinism by
	// construction.
	const inf = int(^uint(0) >> 1)
	best := make([][]cost, k+1)
	from := make([][]int, k+1)
	for s := 0; s <= k; s++ {
		best[s] = make([]cost, n+1)
		from[s] = make([]int, n+1)
		for i := 0; i <= n; i++ {
			best[s][i] = cost{inf, inf}
			from[s][i] = -1
		}
	}
	best[0][0] = cost{0, 0}
	for s := 1; s <= k; s++ {
		for i := s; i <= n; i++ {
			for j := s - 1; j < i; j++ {
				if best[s-1][j].primary == inf {
					continue
				}
				if j > 0 && illegal != nil && illegal[j] {
					continue
				}
				load := prefW[i] - prefW[j]
				if opts.Capacity > 0 && load > opts.Capacity {
					continue
				}
				cut := 0
				if j > 0 {
					cut = traffic[j]
				}
				prev := best[s-1][j]
				var cand cost
				switch opts.Policy {
				case PolicyBalanced:
					cand = cost{primary: maxInt(prev.primary, load), secondary: prev.secondary + cut}
				default: // PolicyMinCut
					cand = cost{primary: prev.primary + cut, secondary: maxInt(prev.secondary, load)}
				}
				if cand.less(best[s][i]) {
					best[s][i] = cand
					from[s][i] = j
				}
			}
		}
	}
	if best[k][n].primary == inf {
		return nil, fmt.Errorf("shard: no legal %d-segment partition of %d items (capacity %d)", k, n, opts.Capacity)
	}

	bounds := make([]int, k+1)
	bounds[k] = n
	for s := k; s >= 1; s-- {
		bounds[s-1] = from[s][bounds[s]]
	}
	plan := &Plan{Bounds: bounds, Loads: make([]int, k), CutTraffic: make([]int, k-1)}
	for s := 0; s < k; s++ {
		plan.Loads[s] = prefW[bounds[s+1]] - prefW[bounds[s]]
		if s > 0 {
			plan.CutTraffic[s-1] = traffic[bounds[s]]
		}
	}
	return plan, nil
}

// PlanFromBounds builds the Plan for an explicitly chosen segmentation —
// bounds[0] = 0, bounds[len-1] = len(weights), strictly increasing — with
// the same load and cut-traffic accounting Partition uses, so a pinned
// cut (the autotuner's shard candidates, a replayed plan) is
// interchangeable with a searched one. capacity > 0 rejects segments
// whose load exceeds it.
func PlanFromBounds(weights []int, signals []Signal, bounds []int, capacity int) (*Plan, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("shard: empty chain")
	}
	k := len(bounds) - 1
	if k < 1 || bounds[0] != 0 || bounds[k] != n {
		return nil, fmt.Errorf("shard: bounds %v must run 0..%d", bounds, n)
	}
	for s := 0; s < k; s++ {
		if bounds[s+1] <= bounds[s] {
			return nil, fmt.Errorf("shard: bounds %v not strictly increasing", bounds)
		}
	}
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("shard: item %d has negative weight %d", i, w)
		}
	}
	prefW := make([]int, n+1)
	for i, w := range weights {
		prefW[i+1] = prefW[i] + w
	}
	diff := make([]int, n+2)
	for _, s := range signals {
		if s.Width < 0 || s.Prod < -1 || s.Prod >= n || s.Last < s.Prod || s.Last >= n {
			return nil, fmt.Errorf("shard: signal %+v outside chain of %d items", s, n)
		}
		diff[s.Prod+1] += s.Width
		diff[s.Last+1] -= s.Width
	}
	traffic := make([]int, n+1)
	run := 0
	for c := 0; c <= n; c++ {
		run += diff[c]
		traffic[c] = run
	}
	plan := &Plan{Bounds: append([]int(nil), bounds...), Loads: make([]int, k), CutTraffic: make([]int, k-1)}
	for s := 0; s < k; s++ {
		plan.Loads[s] = prefW[bounds[s+1]] - prefW[bounds[s]]
		if capacity > 0 && plan.Loads[s] > capacity {
			return nil, fmt.Errorf("shard: segment %d load %d exceeds capacity %d", s, plan.Loads[s], capacity)
		}
		if s > 0 {
			plan.CutTraffic[s-1] = traffic[bounds[s]]
		}
	}
	return plan, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
