// Package place implements VPR-style simulated-annealing placement of a
// function-block netlist onto the FPSA fabric (paper §5.3): the cost is
// signal-weighted half-perimeter wirelength, moves swap blocks or relocate
// them to free sites, and the temperature schedule adapts to the observed
// acceptance rate.
//
// Anneal runs one classic serial schedule; Portfolio runs a multi-seed
// portfolio of independent anneals on a worker pool, cancels runs that
// fall behind the best-so-far at periodic cost checkpoints, and returns
// the cheapest placement — deterministically for any worker count.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
)

// Placement maps block IDs to fabric sites.
type Placement struct {
	Chip fabric.Chip
	Pos  []fabric.Site // block ID → site
	occ  []int         // site index → block ID or −1
}

// Random places blocks onto distinct random sites.
func Random(nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand) (*Placement, error) {
	n := len(nl.Blocks)
	if n > chip.Sites() {
		return nil, fmt.Errorf("place: %d blocks exceed %d sites", n, chip.Sites())
	}
	perm := rng.Perm(chip.Sites())
	p := &Placement{
		Chip: chip,
		Pos:  make([]fabric.Site, n),
		occ:  make([]int, chip.Sites()),
	}
	for i := range p.occ {
		p.occ[i] = -1
	}
	for b := 0; b < n; b++ {
		p.Pos[b] = chip.SiteAt(perm[b])
		p.occ[perm[b]] = b
	}
	return p, nil
}

// Fixed builds a placement from explicit per-block sites (deterministic
// floorplans, tests, imported placements).
func Fixed(nl *netlist.Netlist, chip fabric.Chip, sites []fabric.Site) (*Placement, error) {
	if len(sites) != len(nl.Blocks) {
		return nil, fmt.Errorf("place: %d sites for %d blocks", len(sites), len(nl.Blocks))
	}
	p := &Placement{
		Chip: chip,
		Pos:  append([]fabric.Site(nil), sites...),
		occ:  make([]int, chip.Sites()),
	}
	for i := range p.occ {
		p.occ[i] = -1
	}
	for b, s := range sites {
		if !chip.Valid(s) {
			return nil, fmt.Errorf("place: block %d site %v off chip", b, s)
		}
		idx := chip.Index(s)
		if p.occ[idx] >= 0 {
			return nil, fmt.Errorf("place: blocks %d and %d share site %v", p.occ[idx], b, s)
		}
		p.occ[idx] = b
	}
	return p, nil
}

// Validate checks the one-block-per-site invariant.
func (p *Placement) Validate() error {
	seen := make(map[int]int)
	for b, s := range p.Pos {
		if !p.Chip.Valid(s) {
			return fmt.Errorf("place: block %d at invalid site %v", b, s)
		}
		idx := p.Chip.Index(s)
		if prev, ok := seen[idx]; ok {
			return fmt.Errorf("place: blocks %d and %d share site %v", prev, b, s)
		}
		seen[idx] = b
		if p.occ[idx] != b {
			return fmt.Errorf("place: occupancy table disagrees at site %v", s)
		}
	}
	return nil
}

// netHPWL returns the half-perimeter wirelength of one net.
func netHPWL(p *Placement, net *netlist.Net) int {
	s := p.Pos[net.Src]
	minX, maxX, minY, maxY := s.X, s.X, s.Y, s.Y
	for _, b := range net.Sinks {
		q := p.Pos[b]
		if q.X < minX {
			minX = q.X
		}
		if q.X > maxX {
			maxX = q.X
		}
		if q.Y < minY {
			minY = q.Y
		}
		if q.Y > maxY {
			maxY = q.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// netWeight is one net's annealing weight: its signal bundle width,
// inflated when the net touches a faulted PE. The factor 1 + f/(f+16)
// (f = the largest residual stuck-cell count among the net's blocks) is
// bounded below 2, so fault pressure shortens routes through degraded
// hardware without ever dominating the wirelength objective; unfaulted
// netlists (every Block.Fault zero) keep the classic Signals weight bit
// for bit. The weight depends only on the netlist, never the placement:
// an annealing run computes it once per net and keeps it.
func netWeight(nl *netlist.Netlist, net *netlist.Net) float64 {
	f := nl.Blocks[net.Src].Fault
	for _, b := range net.Sinks {
		if v := nl.Blocks[b].Fault; v > f {
			f = v
		}
	}
	w := float64(net.Signals)
	if f > 0 {
		w *= 1 + float64(f)/float64(f+16)
	}
	return w
}

// Cost returns the signal-weighted total HPWL (fault-penalized; see
// netWeight).
func Cost(p *Placement, nl *netlist.Netlist) float64 {
	var total float64
	for i := range nl.Nets {
		total += float64(netHPWL(p, &nl.Nets[i])) * netWeight(nl, &nl.Nets[i])
	}
	return total
}

// Options tunes the annealer.
type Options struct {
	// MovesPerTemp is the number of proposed moves at each temperature;
	// 0 selects the VPR default 10·n^{4/3}.
	MovesPerTemp int
}

// initialTempFactor scales the starting temperature relative to the cost
// standard deviation of random moves.
const initialTempFactor = 20

// Stats reports what the annealer did.
type Stats struct {
	InitialCost float64
	FinalCost   float64
	Temps       int
	Moves       int
	Accepted    int
}

// Anneal improves a random placement with simulated annealing and returns
// it with run statistics. ctx bounds the run: cancellation stops at the
// next temperature step and returns ctx.Err(); a run that finished before
// ctx ended is returned. An uncancelled run is bit-identical for any ctx.
func Anneal(ctx context.Context, nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*Placement, Stats, error) {
	a, err := newAnnealer(nl, chip, rng, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	a.run(ctx, -1)
	if !a.done {
		return nil, Stats{}, ctx.Err()
	}
	p, stats := a.finish()
	return p, stats, nil
}

// annealer is a resumable annealing run: advance it a bounded number of
// temperature steps at a time with run, inspect CurrentCost between
// segments, and call finish when done. The trajectory depends only on the
// rng the annealer was built with, never on when or from which goroutine
// its segments execute — the property the multi-seed Portfolio relies on
// for determinism.
type annealer struct {
	nl    *netlist.Netlist
	rng   *rand.Rand
	p     *Placement
	cost  float64
	stats Stats

	// The netlist and the placement in flat form, built once, owned by this
	// run and never shared (the portfolio steps annealers on different
	// goroutines). pos[b] is block b's coordinates — the run's own: p.Pos
	// catches up at the end of every temperature step, p.occ is live — and
	// site[i] those of site index i.
	// refs[refStart[b]:refStart[b+1]] lists the nets touching block b in
	// netlist order, each once. A net that is not two distinct pins (a wide
	// net, k) has its pins in pins[pinStart[k]:pinStart[k+1]] and wideCost[k] caches
	// float64(HPWL)·weight under the current placement — the same product
	// Cost sums, so a stored value equals a recomputed one bit for bit.
	// stamp[k] == gen marks wide net k as already listed for the move being
	// evaluated; nets and costs hold that move's wide nets and their costs
	// with the move applied.
	pos      []xy
	site     []xy
	refs     []netRef
	refStart []int32
	pins     []int32
	pinStart []int32
	wideCost []float64
	stamp    []int
	gen      int
	nets     []int32
	costs    []float64

	moves   int
	temp    float64
	minTemp float64
	done    bool
}

// xy is a grid position in the annealer's flat form.
type xy struct{ x, y int32 }

// netRef is one net on a block's list, with the net's weight. partner ≥ 0
// is the other end of a two-pin net, priced from the two positions alone;
// otherwise net indexes the wide-net tables.
type netRef struct {
	net, partner int32
	w            float64
}

// move is one proposed move: block b goes from site index from to site
// index target, and the block that was there (other, −1 for a free site)
// takes from.
type move struct{ b, other, from, target int }

// newAnnealer builds the initial random placement and its flat form, probes
// the starting temperature (VPR's recipe: the cost deviation of a sample of
// random moves) and leaves the run ready to step.
func newAnnealer(nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*annealer, error) {
	pins := 0
	for i := range nl.Nets {
		pins += 1 + len(nl.Nets[i].Sinks)
	}
	if len(nl.Blocks) > math.MaxInt32 || len(nl.Nets) > math.MaxInt32 || pins > math.MaxInt32 || chip.W > math.MaxInt32 || chip.H > math.MaxInt32 {
		return nil, fmt.Errorf("place: %d blocks, %d nets, %d pins on a %dx%d chip exceed the annealer's 32-bit tables", len(nl.Blocks), len(nl.Nets), pins, chip.W, chip.H)
	}
	p, err := Random(nl, chip, rng)
	if err != nil {
		return nil, err
	}
	a := &annealer{
		nl:       nl,
		rng:      rng,
		p:        p,
		pos:      make([]xy, len(nl.Blocks)),
		site:     make([]xy, chip.Sites()),
		refs:     make([]netRef, 0, pins), // a pin lists its net at most once
		refStart: make([]int32, 1, len(nl.Blocks)+1),
		pinStart: make([]int32, 1),
	}
	for i := range a.site {
		a.site[i] = xy{int32(i % chip.W), int32(i / chip.W)}
	}
	for b, s := range p.Pos {
		a.pos[b] = xy{int32(s.X), int32(s.Y)}
	}
	// List nets by block, each net once per block it touches, and total the
	// cost in net order exactly as Cost does.
	byBlock := make([][]netRef, len(nl.Blocks))
	lastNet := make([]int, len(nl.Blocks)) // block → 1 + the last net listed under it
	for i := range nl.Nets {
		net := &nl.Nets[i]
		w := netWeight(nl, net)
		c := float64(netHPWL(p, net)) * w
		a.cost += c
		if src := net.Src; len(net.Sinks) == 1 && net.Sinks[0] != src {
			sink := net.Sinks[0]
			byBlock[src] = append(byBlock[src], netRef{net: -1, partner: int32(sink), w: w})
			byBlock[sink] = append(byBlock[sink], netRef{net: -1, partner: int32(src), w: w})
			continue
		}
		k := int32(len(a.wideCost))
		a.wideCost = append(a.wideCost, c)
		pin := func(b int) {
			a.pins = append(a.pins, int32(b))
			if lastNet[b] != i+1 {
				lastNet[b] = i + 1
				byBlock[b] = append(byBlock[b], netRef{net: k, partner: -1, w: w})
			}
		}
		pin(net.Src)
		for _, b := range net.Sinks {
			pin(b)
		}
		a.pinStart = append(a.pinStart, int32(len(a.pins)))
	}
	for _, refs := range byBlock {
		a.refs = append(a.refs, refs...)
		a.refStart = append(a.refStart, int32(len(a.refs)))
	}
	a.stamp = make([]int, len(a.wideCost))
	// A move touches each wide net at most once, so neither buffer grows.
	a.nets = make([]int32, 0, len(a.wideCost))
	a.costs = make([]float64, 0, len(a.wideCost))
	a.stats = Stats{InitialCost: a.cost}
	if len(nl.Nets) == 0 || len(nl.Blocks) < 2 {
		a.done = true
		return a, nil
	}

	a.moves = opts.MovesPerTemp
	if a.moves <= 0 {
		a.moves = int(10 * math.Pow(float64(len(nl.Blocks)), 4.0/3.0))
		if a.moves > 20000 {
			a.moves = 20000
		}
	}
	var sumSq, sum float64
	const probes = 64
	for i := 0; i < probes; i++ {
		mv, delta := a.propose()
		a.undo(mv) // measure only
		d := math.Abs(delta)
		sum += d
		sumSq += d * d
	}
	std := math.Sqrt(math.Max(0, sumSq/probes-(sum/probes)*(sum/probes)))
	a.temp = initialTempFactor * (std + 1)
	a.minTemp = 0.001 * (a.cost/float64(len(nl.Nets)) + 1)
	if a.temp <= a.minTemp {
		a.done = true
	}
	return a, nil
}

// propose draws a random block and a random target site (occupied → swap,
// free → relocate), applies the move and returns it with its cost delta;
// the caller keeps it with commit or reverts it with undo. The affected
// nets are b's list in order, then the nets on other's list not already
// listed, in order: before and after are float sums over that sequence, so
// its order is part of every accept/reject decision and must not change.
func (a *annealer) propose() (move, float64) {
	b := a.rng.Intn(len(a.pos))
	target := a.rng.Intn(len(a.site))
	from, to := a.pos[b], a.site[target]
	mv := move{b: b, other: a.p.occ[target], from: int(from.y)*a.p.Chip.W + int(from.x), target: target}
	a.nets, a.costs = a.nets[:0], a.costs[:0]
	if mv.other == b {
		return mv, 0 // b already sits on target: applying changes nothing
	}
	a.apply(mv.b, mv.target, mv.other, mv.from)
	a.gen++
	before, after := a.price(b, mv.other, false, from, to, 0, 0)
	if mv.other >= 0 {
		before, after = a.price(mv.other, b, true, to, from, before, after)
	}
	return mv, after - before
}

// price adds the nets on block blk's list to a move's before and after
// sums; the move, already applied, took blk from old to new and, on a swap,
// peer the other way. A two-pin net is priced on the spot, both times from
// positions, and keeps no state: float64(h)·w recomputed is the double a
// cache would hold. The two-pin net joining the swapped pair is listed once,
// under the first block priced (peerListed says blk is the second); a wide
// net is listed once by its stamp, read from its cache and rescanned.
func (a *annealer) price(blk, peer int, peerListed bool, old, new xy, before, after float64) (float64, float64) {
	for _, r := range a.refs[a.refStart[blk]:a.refStart[blk+1]] {
		if r.partner >= 0 {
			q := a.pos[r.partner]
			was := q
			if int(r.partner) == peer {
				if peerListed {
					continue
				}
				was = new // peer sat where blk now sits
			}
			before += float64(dist(old, was)) * r.w
			after += float64(dist(new, q)) * r.w
			continue
		}
		if a.stamp[r.net] == a.gen {
			continue
		}
		a.stamp[r.net] = a.gen
		before += a.wideCost[r.net]
		first := a.pos[a.pins[a.pinStart[r.net]]]
		lo, hi := first, first
		for _, pin := range a.pins[a.pinStart[r.net]+1 : a.pinStart[r.net+1]] {
			q := a.pos[pin]
			lo.x, hi.x = min(lo.x, q.x), max(hi.x, q.x)
			lo.y, hi.y = min(lo.y, q.y), max(hi.y, q.y)
		}
		c := float64(dist(lo, hi)) * r.w
		a.nets = append(a.nets, r.net)
		a.costs = append(a.costs, c)
		after += c
	}
	return before, after
}

// dist is the Manhattan distance between two positions: the half-perimeter
// of a two-pin net, or of a bounding box from its corners.
func dist(p, q xy) int32 {
	dx, dy := p.x-q.x, p.y-q.y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// apply moves block b to site index target; if other ≥ 0 it takes b's old
// site (index from).
func (a *annealer) apply(b, target, other, from int) {
	a.pos[b] = a.site[target]
	a.p.occ[target] = b
	if other >= 0 {
		a.pos[other] = a.site[from]
		a.p.occ[from] = other
	} else {
		a.p.occ[from] = -1
	}
}

// commit keeps the move propose left applied.
func (a *annealer) commit(delta float64) {
	for k, i := range a.nets {
		a.wideCost[i] = a.costs[k]
	}
	a.cost += delta
}

// undo reverts the move propose left applied.
func (a *annealer) undo(mv move) {
	if mv.other != mv.b {
		a.apply(mv.b, mv.from, mv.other, mv.target)
	}
}

// metropolis reports u < exp(−t) for t ≥ 0, with the same answer as that
// expression on every input but without the exponential when the cubic
// Taylor bounds 1−t+t²/2−t³/6 ≤ e^−t ≤ 1/(1+t+t²/2+t³/6) already decide it.
// The margin is many orders above the rounding of either bound and of
// math.Exp: a bound rounds by under 1e-10 wherever it lies in [0, 1] (the
// lower one only for t < 100, past which it is far below zero), so a u the
// margin lets through is on the same side of math.Exp(−t).
func metropolis(u, t float64) bool {
	const margin = 1e-9
	sq := t * t / 2
	cube := sq * t / 3
	if u < 1-t+sq-cube-margin {
		return true
	}
	if u > 1/(1+t+sq+cube)+margin {
		return false
	}
	return u < math.Exp(-t)
}

// step runs one temperature: a full move batch plus adaptive cooling.
func (a *annealer) step() {
	if a.done {
		return
	}
	accepted := 0
	for m := 0; m < a.moves; m++ {
		mv, delta := a.propose()
		if delta <= 0 || metropolis(a.rng.Float64(), delta/a.temp) {
			a.commit(delta)
			accepted++
			a.stats.Accepted++
		} else {
			a.undo(mv)
		}
		a.stats.Moves++
	}
	for b, at := range a.pos {
		a.p.Pos[b] = fabric.Site{X: int(at.x), Y: int(at.y)}
	}
	// VPR-style adaptive cooling: cool faster when acceptance is
	// extreme, slower in the productive 15-95% band.
	rate := float64(accepted) / float64(a.moves)
	switch {
	case rate > 0.96:
		a.temp *= 0.5
	case rate > 0.8:
		a.temp *= 0.9
	case rate > 0.15:
		a.temp *= 0.95
	default:
		a.temp *= 0.8
	}
	a.stats.Temps++
	if a.temp <= a.minTemp || a.stats.Temps > 300 {
		a.done = true
	}
}

// run advances up to maxSteps temperatures (negative = to completion),
// checking ctx between temperatures: a cancelled run stops early with
// its placement frozen mid-anneal. The check never touches the rng, so
// an uncancelled run's trajectory is unchanged.
func (a *annealer) run(ctx context.Context, maxSteps int) {
	for i := 0; !a.done && (maxSteps < 0 || i < maxSteps); i++ {
		if ctx.Err() != nil {
			return
		}
		a.step()
	}
}

// CurrentCost recomputes the exact current cost from the placement — the
// checkpoint metric Portfolio ranks runs by. The running total a.cost
// accumulates one rounded delta per accepted move and drifts from it.
func (a *annealer) CurrentCost() float64 { return Cost(a.p, a.nl) }

// finish returns the placement with final statistics.
func (a *annealer) finish() (*Placement, Stats) {
	a.stats.FinalCost = Cost(a.p, a.nl) // recompute exactly (incremental drift)
	return a.p, a.stats
}
