package mapper

import (
	"fmt"

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
// applies: an edge chains bufferlessly (NBD) only when neither side
// time-multiplexes its weights (both iteration counts are 1), which is the
// paper's direct spike-train chaining; every time-division-multiplexed
// connection needs an SMB to hold intermediate counts (§5.2).
func BuildNetlist(g *coreop.Graph, a Allocation, params device.Params, bufferedEdges map[Edge]bool) (*netlist.Netlist, error) {
	return BuildNetlistFaulted(g, a, params, bufferedEdges, nil, 0)
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
	if len(a.Dup) != len(g.Groups) {
		return nil, fmt.Errorf("mapper: allocation covers %d groups, graph has %d", len(a.Dup), len(g.Groups))
	}
	nl := &netlist.Netlist{Name: g.Name}
	window := params.SamplingWindow()

	// PE instances.
	peIDs := make([][]int, len(g.Groups))
	for gi, grp := range g.Groups {
		// The same derivation the executors' masks come from
		// (FaultModel.MaskForUnit, keyed on the global group ID), so the
		// netlist's penalty weights and the runtime's faulted
		// conductances agree by construction — but only the count is
		// kept. Every copy of a group shares it: the copies are one
		// logical unit's duplicated programming.
		residual := faults.ResidualForUnit(grp.Layer, unitBase+grp.ID, params.CrossbarRows, params.LogicalColumns(), grp.Rows, grp.Cols)
		peIDs[gi] = make([]int, a.Dup[gi])
		for c := 0; c < a.Dup[gi]; c++ {
			id := nl.AddBlock(netlist.BlockPE, fmt.Sprintf("%s#%d", grp.Name, c), gi, c)
			nl.Blocks[id].Fault = residual
			peIDs[gi][c] = id
		}
	}

	needsBuffer := func(u, v int) bool {
		if bufferedEdges != nil {
			return bufferedEdges[Edge{From: u, To: v}]
		}
		return a.Iterations[u] > 1 || a.Iterations[v] > 1
	}

	// Buffered producers get one double-buffered SMB bank each, shared
	// by every consumer (the bank stores the producer's output counts
	// once; each reader has its own port schedule — the BC constraint).
	bankOf := make(map[int][]int)
	bank := func(ui int) []int {
		if ids, ok := bankOf[ui]; ok {
			return ids
		}
		src := g.Groups[ui]
		blocks := smb.BlocksNeeded(params, 2*src.Cols, window)
		ids := make([]int, blocks)
		for b := 0; b < blocks; b++ {
			ids[b] = nl.AddBlock(netlist.BlockSMB, fmt.Sprintf("%s.buf%d", src.Name, b), ui, b)
		}
		for _, p := range peIDs[ui] {
			nl.AddNet(p, ids, src.Cols)
		}
		bankOf[ui] = ids
		return ids
	}

	// Data connections. Directly chained edges dominate the net count (one
	// net per producer copy per edge — hundreds of thousands on the large
	// models), so size the net table for them and the control nets up front.
	netsHint := len(g.Groups)
	for vi, grp := range g.Groups {
		for _, ui := range grp.Deps {
			if !needsBuffer(ui, vi) {
				netsHint += a.Dup[ui]
			}
		}
	}
	nl.Nets = make([]netlist.Net, 0, netsHint)
	groupInBufs := make(map[int][]int) // consumer group → SMB block IDs on its inputs
	var sinks []int                    // one net's sinks; AddNet copies them
	for vi, grp := range g.Groups {
		for _, ui := range grp.Deps {
			src := g.Groups[ui]
			signals := src.Cols
			if needsBuffer(ui, vi) {
				bufIDs := bank(ui)
				groupInBufs[vi] = append(groupInBufs[vi], bufIDs...)
				for _, b := range bufIDs {
					nl.AddNet(b, peIDs[vi], signals)
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
			du, dv := a.Dup[ui], a.Dup[vi]
			pairs := du
			if dv > pairs {
				pairs = dv
			}
			for c := 0; c < du; c++ {
				sinks = sinks[:0]
				for k := c; k < pairs; k += du {
					sinks = append(sinks, peIDs[vi][k%dv])
				}
				nl.AddNet(peIDs[ui][c], sinks, signals)
			}
		}
	}

	// Control logic: synthesize the real per-group controllers to obtain
	// LUT counts, then pack them into CLBs.
	groupLUTs, err := groupControllerLUTs(params, window, a.Iterations)
	if err != nil {
		return nil, err
	}
	totalLUTs := 0
	for _, luts := range groupLUTs {
		totalLUTs += luts
	}
	clbCount := clb.BlocksNeeded(params, totalLUTs)
	clbIDs := make([]int, clbCount)
	for i := range clbIDs {
		clbIDs[i] = nl.AddBlock(netlist.BlockCLB, fmt.Sprintf("ctl%d", i), -1, i)
	}
	// Assign control domains to CLBs first-fit and emit control nets.
	if clbCount > 0 {
		free := params.CLBLUTs
		cur := 0
		for gi, luts := range groupLUTs {
			if luts > free && cur < clbCount-1 {
				cur++
				free = params.CLBLUTs
			}
			free -= luts
			sinks = append(append(sinks[:0], peIDs[gi]...), groupInBufs[gi]...)
			nl.AddNet(clbIDs[cur], sinks, 2) // reset + iteration-select strobes
		}
	}
	if err := nl.Validate(); err != nil {
		return nil, err
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
