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
	// InitialTempFactor scales the starting temperature relative to the
	// cost standard deviation of random moves (default 20).
	InitialTempFactor float64
}

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
// next temperature step and returns ctx.Err(). An uncancelled run is
// bit-identical for any ctx.
func Anneal(ctx context.Context, nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*Placement, Stats, error) {
	a, err := newAnnealer(nl, chip, rng, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	a.run(ctx, -1)
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
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
	nl     *netlist.Netlist
	rng    *rand.Rand
	netsOf [][]int
	p      *Placement
	cost   float64
	stats  Stats

	// Move-evaluation scratch, owned by this run and never shared (the
	// portfolio steps annealers on different goroutines). weight[i] is
	// net i's netWeight, fixed by the netlist; netCost[i] is
	// float64(HPWL_i)·weight[i] under the current placement — the same
	// product Cost sums, so a stored value equals a recomputed one bit for
	// bit. stamp[i] == gen marks net i as already listed for the move
	// being evaluated; nets and costs hold that move's affected nets and
	// their costs with the move applied.
	weight  []float64
	netCost []float64
	stamp   []int
	gen     int
	nets    []int
	costs   []float64

	moves   int
	temp    float64
	minTemp float64
	done    bool
}

// move is one proposed move: block b goes from site index from to site
// index target, and the block that was there (other, −1 for a free site)
// takes from.
type move struct{ b, other, from, target int }

// newAnnealer builds the initial random placement, probes the starting
// temperature (VPR's recipe: the cost deviation of a sample of random
// moves) and leaves the run ready to step.
func newAnnealer(nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*annealer, error) {
	p, err := Random(nl, chip, rng)
	if err != nil {
		return nil, err
	}
	a := &annealer{
		nl:      nl,
		rng:     rng,
		p:       p,
		netsOf:  make([][]int, len(nl.Blocks)),
		weight:  make([]float64, len(nl.Nets)),
		netCost: make([]float64, len(nl.Nets)),
		stamp:   make([]int, len(nl.Nets)),
		// A move touches each net at most once, so neither buffer grows.
		nets:  make([]int, 0, len(nl.Nets)),
		costs: make([]float64, 0, len(nl.Nets)),
	}
	// Index nets by block, each net once per block it touches, and total
	// the cost in net order exactly as Cost does.
	lastNet := make([]int, len(nl.Blocks)) // block → 1 + the last net listed under it
	for i := range nl.Nets {
		net := &nl.Nets[i]
		a.netsOf[net.Src] = append(a.netsOf[net.Src], i)
		lastNet[net.Src] = i + 1
		for _, b := range net.Sinks {
			if lastNet[b] != i+1 {
				lastNet[b] = i + 1
				a.netsOf[b] = append(a.netsOf[b], i)
			}
		}
		a.weight[i] = netWeight(nl, net)
		a.netCost[i] = float64(netHPWL(p, net)) * a.weight[i]
		a.cost += a.netCost[i]
	}
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
	tempFactor := opts.InitialTempFactor
	if tempFactor <= 0 {
		tempFactor = 20
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
	a.temp = tempFactor * (std + 1)
	a.minTemp = 0.001 * (a.cost/float64(len(nl.Nets)) + 1)
	if a.temp <= a.minTemp {
		a.done = true
	}
	return a, nil
}

// propose draws a random block and a random target site (occupied → swap,
// free → relocate), applies the move and returns it with its cost delta;
// the caller keeps it with commit or reverts it with undo. The affected
// nets are netsOf[b] in order, then the nets of netsOf[other] not already
// listed, in order: before and after are float sums over that list, so
// its order is part of every accept/reject decision and must not change.
func (a *annealer) propose() (move, float64) {
	p := a.p
	b := a.rng.Intn(len(p.Pos))
	target := a.rng.Intn(len(p.occ)) // one occ entry per site
	mv := move{b: b, other: p.occ[target], from: p.index(p.Pos[b]), target: target}
	a.nets = a.nets[:0]
	if mv.other == b {
		return mv, 0 // b already sits on target: applying changes nothing
	}
	a.gen++
	for _, i := range a.netsOf[b] {
		a.stamp[i] = a.gen
		a.nets = append(a.nets, i)
	}
	if mv.other >= 0 {
		for _, i := range a.netsOf[mv.other] {
			if a.stamp[i] != a.gen {
				a.stamp[i] = a.gen
				a.nets = append(a.nets, i)
			}
		}
	}
	var before, after float64
	for _, i := range a.nets {
		before += a.netCost[i]
	}
	p.apply(mv.b, mv.target, mv.other, mv.from)
	a.costs = a.costs[:len(a.nets)]
	for k, i := range a.nets {
		c := float64(netHPWL(p, &a.nl.Nets[i])) * a.weight[i]
		a.costs[k] = c
		after += c
	}
	return mv, after - before
}

// commit keeps the move propose left applied.
func (a *annealer) commit(delta float64) {
	for k, i := range a.nets {
		a.netCost[i] = a.costs[k]
	}
	a.cost += delta
}

// undo reverts the move propose left applied.
func (a *annealer) undo(mv move) {
	if mv.other != mv.b {
		a.p.apply(mv.b, mv.from, mv.other, mv.target)
	}
}

// step runs one temperature: a full move batch plus adaptive cooling.
func (a *annealer) step() {
	if a.done {
		return
	}
	accepted := 0
	for m := 0; m < a.moves; m++ {
		mv, delta := a.propose()
		if delta <= 0 || a.rng.Float64() < math.Exp(-delta/a.temp) {
			a.commit(delta)
			accepted++
			a.stats.Accepted++
		} else {
			a.undo(mv)
		}
		a.stats.Moves++
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

// index and siteAt are Chip.Index and Chip.SiteAt for the annealer's inner
// loop: Chip's value-receiver methods copy the whole chip, device
// parameter table included, on every call.
func (p *Placement) index(s fabric.Site) int { return s.Y*p.Chip.W + s.X }

func (p *Placement) siteAt(i int) fabric.Site {
	return fabric.Site{X: i % p.Chip.W, Y: i / p.Chip.W}
}

// apply moves block b to site index target; if other ≥ 0 it takes b's old
// site (index fromIdx).
func (p *Placement) apply(b, target, other, fromIdx int) {
	p.Pos[b] = p.siteAt(target)
	p.occ[target] = b
	if other >= 0 {
		p.Pos[other] = p.siteAt(fromIdx)
		p.occ[fromIdx] = other
	} else {
		p.occ[fromIdx] = -1
	}
}
