// Package route implements PathFinder-style negotiated-congestion routing
// over the FPSA fabric (paper §5.3): Dijkstra searches on a channel-level
// routing-resource graph, iterated with growing present-congestion and
// history costs until no channel is over capacity.
//
// The routing-resource graph is channel-granular: each tile carries one
// horizontal and one vertical channel node of capacity Tracks, and a net of
// width Signals consumes Signals track units on every channel node of its
// route tree. This coarsening (versus VPR's per-track graph) keeps the
// graph 2·W·H nodes while preserving what the evaluation needs: congestion
// feasibility, required channel width, and per-net hop counts for the
// communication-latency model.
//
// Within each negotiation iteration, nets route concurrently against the
// previous iteration's congestion snapshot and a serial deterministic
// pass resolves the conflicts, so the Result is bit-identical for every
// Options.Workers value — see Route.
package route

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
)

// Options tunes the router.
type Options struct {
	// MaxIters bounds the negotiation iterations (default 30).
	MaxIters int
	// Workers is the number of goroutines routing nets concurrently
	// within each negotiation iteration (0 = GOMAXPROCS). The Result is
	// bit-identical for every worker count: the concurrent phase routes
	// each net against the previous iteration's congestion snapshot, and
	// conflicts are resolved by a serial deterministic pass.
	Workers int
}

// The negotiation schedule: the present-congestion penalty starts at
// presFacFirst and grows ×presFacGrowth per iteration, and each overused
// node's history cost grows by histGain per iteration.
const (
	presFacFirst  = 0.5
	presFacGrowth = 1.8
	histGain      = 1
)

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 30
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// TreeEdge is one switch-box hop of a route tree: channel nodes A and B
// are adjacent and electrically joined for the net.
type TreeEdge struct{ A, B int }

// Result is the routing outcome.
type Result struct {
	// Converged reports whether the final iteration had no overuse.
	Converged bool
	// Iterations actually run.
	Iterations int
	// NetRoutes[i] is net i's route tree (channel node IDs).
	NetRoutes [][]int
	// NetEdges[i] is the tree's switch-box hops; the source site's two
	// seed nodes join through the source's connection box instead of an
	// edge. Consumed by the bitstream generator.
	NetEdges [][]TreeEdge
	// NetHops[i] is the longest source→sink channel-hop count of net i.
	NetHops []int
	// MaxOccupancy is the busiest channel's track usage — the channel
	// width this placement actually needs.
	MaxOccupancy int
	// Overused counts channel nodes above capacity in the last
	// iteration.
	Overused int
}

// NodeSite decodes a channel node ID into (direction, site) for the given
// chip: direction 0 is horizontal, 1 vertical.
func NodeSite(chip fabric.Chip, node int) (dir int, s fabric.Site) {
	wh := chip.W * chip.H
	dir = node / wh
	rem := node % wh
	return dir, fabric.Site{X: rem % chip.W, Y: rem / chip.W}
}

// MaxHops returns the critical (longest) net hop count.
func (r *Result) MaxHops() int {
	max := 0
	for _, h := range r.NetHops {
		if h > max {
			max = h
		}
	}
	return max
}

// MeanHops returns the average net hop count.
func (r *Result) MeanHops() float64 {
	if len(r.NetHops) == 0 {
		return 0
	}
	total := 0
	for _, h := range r.NetHops {
		total += h
	}
	return float64(total) / float64(len(r.NetHops))
}

// router carries per-run state.
type router struct {
	chip    fabric.Chip
	nl      *netlist.Netlist
	pl      *place.Placement
	opts    Options
	nodes   int
	hist    []float64
	occ     []int
	presFac float64
}

// scratch is one worker's private search state, reused across nets.
type scratch struct {
	dist    []float64
	hops    []int
	prev    []int
	visited []bool
	// stamp marks the current net's previous-iteration route: stamp[n] ==
	// mark means node n carried this net last iteration.
	stamp []int
	mark  int
}

func newScratch(nodes int) *scratch {
	return &scratch{
		dist:    make([]float64, nodes),
		hops:    make([]int, nodes),
		prev:    make([]int, nodes),
		visited: make([]bool, nodes),
		stamp:   make([]int, nodes),
	}
}

// Node numbering: dir·W·H + y·W + x with dir 0 horizontal, 1 vertical.
func (r *router) node(dir int, s fabric.Site) int {
	return dir*r.chip.W*r.chip.H + s.Y*r.chip.W + s.X
}

func (r *router) siteOf(n int) (int, fabric.Site) {
	wh := r.chip.W * r.chip.H
	dir := n / wh
	rem := n % wh
	return dir, fabric.Site{X: rem % r.chip.W, Y: rem / r.chip.W}
}

// neighbors appends n's adjacent channel nodes to buf.
func (r *router) neighbors(n int, buf []int) []int {
	dir, s := r.siteOf(n)
	// Turn at the switch box.
	buf = append(buf, r.node(1-dir, s))
	if dir == 0 { // horizontal: continue along X
		if s.X > 0 {
			buf = append(buf, r.node(0, fabric.Site{X: s.X - 1, Y: s.Y}))
		}
		if s.X < r.chip.W-1 {
			buf = append(buf, r.node(0, fabric.Site{X: s.X + 1, Y: s.Y}))
		}
	} else { // vertical: continue along Y
		if s.Y > 0 {
			buf = append(buf, r.node(1, fabric.Site{X: s.X, Y: s.Y - 1}))
		}
		if s.Y < r.chip.H-1 {
			buf = append(buf, r.node(1, fabric.Site{X: s.X, Y: s.Y + 1}))
		}
	}
	return buf
}

// chanCost is the PathFinder node cost for a net of the given width
// against an occupancy base for node n.
func (r *router) chanCost(base, n, signals int) float64 {
	c := 1 + r.hist[n]
	if over := base + signals - r.chip.Tracks; over > 0 {
		c *= 1 + r.presFac*float64(over)
	}
	return c
}

// Route runs negotiated-congestion routing of nl under placement pl.
//
// Each negotiation iteration has two phases. First, every net is routed
// concurrently (opts.Workers goroutines) against a frozen congestion
// snapshot — the previous iteration's occupancy minus the net's own
// previous usage — so the nets are mutually independent and the phase is
// deterministic regardless of scheduling. Second, a serial
// conflict-resolution pass walks the nets in the deterministic wide-first
// order and rips up and re-routes every net crossing an overused channel
// against live occupancy. Overuse that survives the pass feeds the normal
// history/present-cost negotiation of the next iteration, so the Result
// is bit-identical for every worker count, including 1.
//
// ctx bounds the routing: workers check it between nets and the
// negotiation loop checks it between phases, so cancellation or deadline
// expiry aborts promptly, discards the partial routing, and returns
// ctx.Err() with no goroutines left behind. The checks never affect the
// search, so an uncancelled run's Result is unchanged.
func Route(ctx context.Context, nl *netlist.Netlist, pl *place.Placement, chip fabric.Chip, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	r := &router{
		chip:  chip,
		nl:    nl,
		pl:    pl,
		opts:  opts,
		nodes: 2 * chip.W * chip.H,
	}
	r.hist = make([]float64, r.nodes)
	r.presFac = presFacFirst

	// Wide nets first: they are hardest to place.
	order := make([]int, len(nl.Nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return nl.Nets[order[a]].Signals > nl.Nets[order[b]].Signals
	})

	res := &Result{
		NetRoutes: make([][]int, len(nl.Nets)),
		NetEdges:  make([][]TreeEdge, len(nl.Nets)),
		NetHops:   make([]int, len(nl.Nets)),
	}
	// Per-worker search state, the conflict-pass scratch and the
	// occupancy buffers live across iterations; only the cheap worker
	// goroutines respawn per iteration.
	workers := opts.Workers
	if workers > len(nl.Nets) {
		workers = len(nl.Nets)
	}
	scratches := make([]*scratch, workers)
	for w := range scratches {
		scratches[w] = newScratch(r.nodes)
	}
	conflictSt := newScratch(r.nodes)
	errs := make([]error, len(nl.Nets))
	prevOcc := make([]int, r.nodes)
	r.occ = make([]int, r.nodes)
	for iter := 1; iter <= opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations = iter

		// Concurrent phase: snapshot-route every net independently.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *scratch) {
				defer wg.Done()
				for {
					ni := int(next.Add(1)) - 1
					if ni >= len(nl.Nets) || ctx.Err() != nil {
						return
					}
					net := &nl.Nets[ni]
					st.mark++
					for _, n := range res.NetRoutes[ni] {
						st.stamp[n] = st.mark
					}
					cost := func(n int) float64 {
						base := prevOcc[n]
						if st.stamp[n] == st.mark {
							base -= net.Signals
						}
						return r.chanCost(base, n, net.Signals)
					}
					tree, edges, hops, err := r.routeNet(net, st, cost)
					if err != nil {
						errs[ni] = err
						return
					}
					res.NetRoutes[ni], res.NetEdges[ni], res.NetHops[ni] = tree, edges, hops
				}
			}(scratches[w])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ni, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("route: net %d: %w", ni, err)
			}
		}

		// Live occupancy of the snapshot routes.
		clear(r.occ)
		for ni := range nl.Nets {
			for _, n := range res.NetRoutes[ni] {
				r.occ[n] += nl.Nets[ni].Signals
			}
		}

		// Serial conflict-resolution pass in deterministic order.
		st := conflictSt
		for _, ni := range order {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			net := &nl.Nets[ni]
			conflicted := false
			for _, n := range res.NetRoutes[ni] {
				if r.occ[n] > chip.Tracks {
					conflicted = true
					break
				}
			}
			if !conflicted {
				continue
			}
			for _, n := range res.NetRoutes[ni] {
				r.occ[n] -= net.Signals
			}
			cost := func(n int) float64 { return r.chanCost(r.occ[n], n, net.Signals) }
			tree, edges, hops, err := r.routeNet(net, st, cost)
			if err != nil {
				return nil, fmt.Errorf("route: net %d: %w", ni, err)
			}
			res.NetRoutes[ni], res.NetEdges[ni], res.NetHops[ni] = tree, edges, hops
			for _, n := range tree {
				r.occ[n] += net.Signals
			}
		}

		res.Overused = 0
		res.MaxOccupancy = 0
		for n := 0; n < r.nodes; n++ {
			if r.occ[n] > res.MaxOccupancy {
				res.MaxOccupancy = r.occ[n]
			}
			if r.occ[n] > chip.Tracks {
				res.Overused++
				r.hist[n] += histGain
			}
		}
		if res.Overused == 0 {
			res.Converged = true
			return res, nil
		}
		r.presFac *= presFacGrowth
		prevOcc, r.occ = r.occ, prevOcc
	}
	return res, nil
}

// routeNet builds a route tree source→all sinks and returns (tree nodes,
// tree edges, max source→sink hops). Node prices come from cost; st is
// the caller's private search state, so concurrent calls on distinct
// scratches are safe.
func (r *router) routeNet(net *netlist.Net, st *scratch, cost func(n int) float64) ([]int, []TreeEdge, int, error) {
	src := r.pl.Pos[net.Src]
	inTree := make(map[int]int) // node → hops from source along tree
	tree := make([]int, 0, 8)
	var edges []TreeEdge
	addTree := func(n, hops int) {
		if _, ok := inTree[n]; !ok {
			inTree[n] = hops
			tree = append(tree, n)
		}
	}
	// The source's CB reaches both channels at its site.
	addTree(r.node(0, src), 1)
	addTree(r.node(1, src), 1)

	maxHops := 0
	dist, hops, prev, visited := st.dist, st.hops, st.prev, st.visited
	var buf [3]int
	for _, sinkBlock := range net.Sinks {
		sink := r.pl.Pos[sinkBlock]
		tH, tV := r.node(0, sink), r.node(1, sink)
		if _, ok := inTree[tH]; ok {
			if h := inTree[tH]; h > maxHops {
				maxHops = h
			}
			continue
		}
		if _, ok := inTree[tV]; ok {
			if h := inTree[tV]; h > maxHops {
				maxHops = h
			}
			continue
		}
		// Dijkstra seeded with the whole tree at cost 0.
		for i := range dist {
			dist[i] = -1
			visited[i] = false
		}
		// Seed from the ordered tree slice, not the map: map iteration
		// order would make equal-cost tie-breaking nondeterministic.
		pq := &nodeHeap{}
		for _, n := range tree {
			dist[n] = 0
			hops[n] = inTree[n]
			prev[n] = -1
			heap.Push(pq, nodeCost{node: n, cost: 0})
		}
		found := -1
		for pq.Len() > 0 {
			nc := heap.Pop(pq).(nodeCost)
			n := nc.node
			if visited[n] {
				continue
			}
			visited[n] = true
			if n == tH || n == tV {
				found = n
				break
			}
			for _, m := range r.neighbors(n, buf[:0]) {
				c := dist[n] + cost(m)
				if dist[m] < 0 || c < dist[m] {
					dist[m] = c
					hops[m] = hops[n] + 1
					prev[m] = n
					heap.Push(pq, nodeCost{node: m, cost: c})
				}
			}
		}
		if found < 0 {
			return nil, nil, 0, fmt.Errorf("no path to sink block %d", sinkBlock)
		}
		if hops[found] > maxHops {
			maxHops = hops[found]
		}
		// Walk back, adding the new branch (nodes and switch-box hops)
		// to the tree. Dijkstra was seeded with every tree node at
		// prev = −1, so the walk ends exactly where the branch joins
		// the existing tree.
		for n := found; ; n = prev[n] {
			addTree(n, hops[n])
			if prev[n] < 0 {
				break
			}
			edges = append(edges, TreeEdge{A: prev[n], B: n})
		}
	}
	return tree, edges, maxHops, nil
}

// nodeCost / nodeHeap implement the Dijkstra priority queue.
type nodeCost struct {
	node int
	cost float64
}

type nodeHeap []nodeCost

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeCost)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
