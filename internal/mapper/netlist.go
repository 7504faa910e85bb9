package mapper

import (
	"fmt"
	"strconv"

	"fpsa/internal/clb"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/netlist"
	"fpsa/internal/smb"
)

// BuildNetlist emits the function-block netlist for a core-op graph under
// an allocation: one PE per group copy, SMB buffers on buffered edges, and
// CLB control logic sized by actually synthesizing the schedule
// controllers — one synthesis per distinct iteration count, which is all a
// group's controller depends on. Block and net order, IDs and names are a
// pure function of the arguments: they feed the netlist fingerprint and
// the placement trajectory.
//
// bufferedEdges may carry op-scheduler decisions lifted to group pairs
// (Schedule.BufferedGroupEdges); if nil, the steady-state pipeline rule
// Allocation.Buffered applies.
func BuildNetlist(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool) (*netlist.Netlist, error) {
	return BuildNetlistFaulted(g, a, params, bufferedEdges, nil, 0)
}

// edgeBuffered reports whether the edge u→v goes through an SMB bank: the
// op scheduler's decision when bufferedEdges carries one, the steady-state
// pipeline rule (Allocation.Buffered) otherwise.
func edgeBuffered(a Allocation, bufferedEdges map[Edge]bool, u, v int) bool {
	if bufferedEdges != nil {
		return bufferedEdges[Edge{From: u, To: v}]
	}
	return a.Buffered(u, v)
}

// netlistSize is what BuildNetlistFaulted will emit, counted without
// emitting it: blocks per type, nets, and sinks summed over every net.
// groupLUTs is the per-group controller cost the CLB count came from, kept
// so the build does not synthesize the controllers a second time.
type netlistSize struct {
	pes, smbs, clbs int
	nets, sinks     int
	groupLUTs       []int
}

// sizeNetlist counts the netlist of (g, a, params, bufferedEdges) from the
// inputs that decide which blocks and nets exist: Σ a.Dup PEs; one SMB bank
// of smb.BlocksNeeded(2·cols, Γ) blocks per producer with at least one
// buffered edge; clb.BlocksNeeded of the synthesized controllers' LUTs.
func sizeNetlist(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool) (netlistSize, error) {
	if len(a.Dup) != len(g.Groups) {
		return netlistSize{}, fmt.Errorf("mapper: allocation covers %d groups, graph has %d", len(a.Dup), len(g.Groups))
	}
	window := params.SamplingWindow()
	var sz netlistSize
	for _, dup := range a.Dup {
		sz.pes += dup
	}
	bank := make([]int, len(g.Groups)) // producer → its bank's block count; −1 no bank yet
	for i := range bank {
		bank[i] = -1
	}
	bankReads := 0 // Σ over buffered edges of the producer's bank size
	for vi, grp := range g.Groups {
		for _, ui := range grp.Deps {
			du, dv := a.Dup[ui], a.Dup[vi]
			if !edgeBuffered(a, bufferedEdges, ui, vi) {
				// One net per producer copy, one sink per copy pair.
				sz.nets += du
				sz.sinks += max(du, dv)
				continue
			}
			if bank[ui] < 0 {
				// Every producer copy writes every block of the bank.
				bank[ui] = smb.BlocksNeeded(params, 2*g.Groups[ui].Cols, window)
				sz.smbs += bank[ui]
				sz.nets += du
				sz.sinks += du * bank[ui]
			}
			// Every block of the bank feeds every consumer copy.
			sz.nets += bank[ui]
			sz.sinks += bank[ui] * dv
			bankReads += bank[ui]
		}
	}
	var err error
	if sz.groupLUTs, err = groupControllerLUTs(params, window, a.Iterations); err != nil {
		return netlistSize{}, err
	}
	sz.clbs = controllerCLBs(params, sz.groupLUTs)
	if sz.clbs > 0 {
		// One control net per group, to its PE copies and input banks.
		sz.nets += len(g.Groups)
		sz.sinks += sz.pes + bankReads
	}
	return sz, nil
}

// controllerCLBs packs the groups' controllers into CLBs.
func controllerCLBs(params device.Params, groupLUTs []int) int {
	total := 0
	for _, luts := range groupLUTs {
		total += luts
	}
	return clb.BlocksNeeded(params, total)
}

// CountBlocks returns the function-block inventory of the netlist
// BuildNetlist emits for the same arguments, without building it — what a
// caller that only charges area and energy needs. It fails exactly where
// the build's own sizing would: an allocation that does not cover the
// graph, or a schedule controller that cannot be synthesized.
// BuildNetlistFaulted checks what it emitted against this count, so the
// two cannot drift apart.
func CountBlocks(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool) (pes, smbs, clbs int, err error) {
	sz, err := sizeNetlist(g, a, params, bufferedEdges)
	return sz.pes, sz.smbs, sz.clbs, err
}

// BuildNetlistFaulted is BuildNetlist under a device fault model: each
// group's PE blocks are stamped with the residual stuck-cell count of its
// crossbar's deterministic fault map (after spare-row/column remapping
// when the model asks for it), which the placer reads as a wirelength
// penalty — nets touching heavily-faulted PEs are pulled toward shorter
// routes, since their signals are re-driven through degraded hardware.
// A nil or inactive model stamps nothing and is bit-identical to
// BuildNetlist.
//
// unitBase offsets the fault-map unit IDs: a sharded deployment's
// sub-graph renumbers its groups from 0, so the caller passes the
// chip's global group offset to keep the netlist keyed on the same
// units the executor programs.
func BuildNetlistFaulted(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool, faults *device.FaultModel, unitBase int) (*netlist.Netlist, error) {
	want, err := sizeNetlist(g, a, params, bufferedEdges)
	if err != nil {
		return nil, err
	}
	return emitNetlist(g, a, params, bufferedEdges, faults, unitBase, want)
}

// emitNetlist builds the netlist into tables sized by want — the block and
// net tables exactly, every net's sinks carved out of one backing array —
// and fails if what it emitted is not what want counted.
func emitNetlist(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool, faults *device.FaultModel, unitBase int, want netlistSize) (*netlist.Netlist, error) {
	nl := &netlist.Netlist{
		Name:   g.Name,
		Blocks: make([]netlist.Block, 0, want.pes+want.smbs+want.clbs),
		Nets:   make([]netlist.Net, 0, want.nets),
	}
	window := params.SamplingWindow()
	// arena backs every net's Sinks. A net is the arena's tail since
	// `from`, capped so appending to one net's sinks cannot reach the next.
	arena := make([]int, 0, want.sinks)
	addNet := func(src, from, signals int) {
		nl.Nets = append(nl.Nets, netlist.Net{ID: len(nl.Nets), Src: src, Sinks: arena[from:len(arena):len(arena)], Signals: signals})
	}

	// PE instances: group gi's copy c is block peBase[gi]+c.
	peBase := make([]int, len(g.Groups))
	for gi, grp := range g.Groups {
		// The same derivation the executors' masks come from
		// (FaultModel.MaskForUnit, keyed on the global group ID), so the
		// netlist's penalty weights and the runtime's faulted
		// conductances agree by construction — but only the count is
		// kept. Every copy of a group shares it: the copies are one
		// logical unit's duplicated programming.
		residual := faults.ResidualForUnit(grp.Layer, unitBase+grp.ID, params.CrossbarRows, params.LogicalColumns(), grp.Rows, grp.Cols)
		peBase[gi] = len(nl.Blocks)
		for c := 0; c < a.Dup[gi]; c++ {
			id := nl.AddBlock(netlist.BlockPE, grp.Name+"#"+strconv.Itoa(c), gi, c)
			nl.Blocks[id].Fault = residual
		}
	}

	// Buffered producers get one double-buffered SMB bank each, shared
	// by every consumer (the bank stores the producer's output counts
	// once; each reader has its own port schedule — the BC constraint).
	// Producer ui's bank is blocks bankBase[ui] … bankBase[ui]+bankLen[ui]−1.
	bankBase := make([]int, len(g.Groups))
	bankLen := make([]int, len(g.Groups))
	for i := range bankBase {
		bankBase[i] = -1
	}
	appendBank := func(ui int) {
		for b := 0; b < bankLen[ui]; b++ {
			arena = append(arena, bankBase[ui]+b)
		}
	}
	addBank := func(ui int) {
		src := g.Groups[ui]
		bankBase[ui] = len(nl.Blocks)
		bankLen[ui] = smb.BlocksNeeded(params, 2*src.Cols, window)
		for b := 0; b < bankLen[ui]; b++ {
			nl.AddBlock(netlist.BlockSMB, src.Name+".buf"+strconv.Itoa(b), ui, b)
		}
		for c := 0; c < a.Dup[ui]; c++ {
			from := len(arena)
			appendBank(ui)
			addNet(peBase[ui]+c, from, src.Cols)
		}
	}

	// Data connections. Directly chained edges dominate the net count (one
	// net per producer copy per edge — hundreds of thousands on the large
	// models).
	for vi, grp := range g.Groups {
		for _, ui := range grp.Deps {
			signals := g.Groups[ui].Cols
			du, dv := a.Dup[ui], a.Dup[vi]
			if edgeBuffered(a, bufferedEdges, ui, vi) {
				if bankBase[ui] < 0 {
					addBank(ui)
				}
				for b := 0; b < bankLen[ui]; b++ {
					from := len(arena)
					for c := 0; c < dv; c++ {
						arena = append(arena, peBase[vi]+c)
					}
					addNet(bankBase[ui]+b, from, signals)
				}
				continue
			}
			// Direct spike-train chaining: rate-matched copy pairing. Pair
			// k of max(du, dv) joins source copy k%du to sink copy k%dv, so
			// source copy c drives the pairs k = c, c+du, … Nets are
			// emitted in copy order: net order feeds the netlist
			// fingerprint and the place/route trajectory. A copy's sinks
			// are distinct — either du ≥ dv and it has one pair, or k < dv
			// and k%dv = k.
			pairs := max(du, dv)
			for c := 0; c < du; c++ {
				from := len(arena)
				for k := c; k < pairs; k += du {
					arena = append(arena, peBase[vi]+k%dv)
				}
				addNet(peBase[ui]+c, from, signals)
			}
		}
	}

	// Control logic: the real per-group controllers' LUT counts, packed
	// into CLBs.
	clbCount := controllerCLBs(params, want.groupLUTs)
	clbBase := len(nl.Blocks)
	for i := 0; i < clbCount; i++ {
		nl.AddBlock(netlist.BlockCLB, "ctl"+strconv.Itoa(i), -1, i)
	}
	// Assign control domains to CLBs first-fit and emit control nets: each
	// group's controller strobes its PE copies and the banks on its
	// buffered inputs, in dependency order.
	if clbCount > 0 {
		free := params.CLBLUTs
		cur := 0
		for gi, luts := range want.groupLUTs {
			if luts > free && cur < clbCount-1 {
				cur++
				free = params.CLBLUTs
			}
			free -= luts
			from := len(arena)
			for c := 0; c < a.Dup[gi]; c++ {
				arena = append(arena, peBase[gi]+c)
			}
			for _, ui := range g.Groups[gi].Deps {
				if edgeBuffered(a, bufferedEdges, ui, gi) {
					appendBank(ui)
				}
			}
			addNet(clbBase+cur, from, 2) // reset + iteration-select strobes
		}
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if pes, smbs, clbs := nl.Counts(); pes != want.pes || smbs != want.smbs || clbs != want.clbs ||
		len(nl.Nets) != want.nets || len(arena) != want.sinks {
		return nil, fmt.Errorf("mapper: emitted %d PEs, %d SMBs, %d CLBs, %d nets, %d sinks; counted %d, %d, %d, %d, %d",
			pes, smbs, clbs, len(nl.Nets), len(arena), want.pes, want.smbs, want.clbs, want.nets, want.sinks)
	}
	return nl, nil
}

// groupControllerLUTs returns every group's controllerLUTs. A controller
// depends only on (params, window, iterations), so each distinct iteration
// count is synthesized once.
func groupControllerLUTs(params device.Params, window int, iterations []int) ([]int, error) {
	out := make([]int, len(iterations))
	memo := make(map[int]int) // iterations → LUTs
	for gi, it := range iterations {
		luts, ok := memo[it]
		if !ok {
			var err error
			if luts, err = controllerLUTs(params, window, it); err != nil {
				return nil, err
			}
			memo[it] = luts
		}
		out[gi] = luts
	}
	return out, nil
}

// controllerLUTs synthesizes the schedule controllers one group needs — a
// mod-Γ window/reset counter and, when the group time-multiplexes its
// weights, a mod-iterations counter — and returns their LUT cost.
func controllerLUTs(params device.Params, window, iterations int) (int, error) {
	reset, err := clb.NewController(window, params.LUTInputs, []clb.Event{{Name: "reset", Cycles: []int{0}}})
	if err != nil {
		return 0, err
	}
	luts := reset.LUTCount()
	if iterations > 1 {
		iter, err := clb.NewController(iterations, params.LUTInputs, []clb.Event{{Name: "next", Cycles: []int{iterations - 1}}})
		if err != nil {
			return 0, err
		}
		luts += iter.LUTCount()
	}
	return luts, nil
}
