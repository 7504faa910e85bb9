// Package bitstream generates the FPSA Configuration — the final artifact
// of the paper's system stack (Figure 5: Placement & Routing → FPSA
// Configuration). The configuration is the set of programmed ReRAM cells
// in the mrFPGA routing layer: switch-box cells joining channel tracks of
// adjacent segments, and connection-box cells attaching block pins to
// channel tracks (paper §4.1: "the connections in SBs and CBs are decided
// by the resistance of the ReRAM cells ... low resistance is a pass").
//
// Because mrFPGA switch boxes are themselves ReRAM crossbars, any track
// can connect to any track, so track assignment is per-channel first-fit.
// The package also provides an independent Verify that interprets only
// the programmed cells — reconstructing per-signal electrical paths — to
// prove each net's source reaches every sink with no shorts between nets.
package bitstream

import (
	"fmt"

	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
	"fpsa/internal/route"
)

// SBCell is one programmed switch-box ReRAM cell: it joins track ta of
// channel node a with track tb of channel node b for one signal.
type SBCell struct {
	NodeA, TrackA int
	NodeB, TrackB int
	Net, Signal   int
}

// CBCell is one programmed connection-box ReRAM cell: it attaches a block
// pin (net signal) to a channel-node track at the block's site.
type CBCell struct {
	Block       int
	Node, Track int
	Net, Signal int
	Source      bool // true: block drives the track; false: block listens
}

// Config is the complete chip configuration for one routed netlist.
type Config struct {
	Chip    fabric.Chip
	Nets    int
	SBCells []SBCell
	CBCells []CBCell
	// tracks[node·Chip.Tracks + track] = net index + 1 (0 = free); retained
	// for verification and occupancy stats.
	tracks []int32
}

// Generate programs the fabric for a converged routing result. Cells are
// emitted net by net — a net's switch-box cells in tree-edge order, then
// its driving connection-box cells in tree-node order, then one listening
// group per sink — into tables sized exactly beforehand; the per-net track
// picks live in scratch reused across nets, so the allocation count does
// not grow with the netlist.
func Generate(nl *netlist.Netlist, pl *place.Placement, res *route.Result, chip fabric.Chip) (*Config, error) {
	if !res.Converged {
		return nil, fmt.Errorf("bitstream: routing did not converge; no legal configuration exists at %d tracks", chip.Tracks)
	}
	nodes := 2 * chip.W * chip.H
	width := chip.Tracks
	// Exact table sizes: one SB cell per tree hop and signal; one CB cell
	// per signal for every tree node at the source's site and for every
	// sink. maxPicks is the largest net's (tree nodes × signals).
	var sbCells, cbCells, maxPicks int
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		srcSite := pl.Pos[net.Src]
		atSource := 0
		for _, node := range res.NetRoutes[ni] {
			if _, s := route.NodeSite(chip, node); s == srcSite {
				atSource++
			}
		}
		sbCells += len(res.NetEdges[ni]) * net.Signals
		cbCells += (atSource + len(net.Sinks)) * net.Signals
		maxPicks = max(maxPicks, len(res.NetRoutes[ni])*net.Signals)
	}
	cfg := &Config{
		Chip:    chip,
		Nets:    len(nl.Nets),
		SBCells: make([]SBCell, 0, sbCells),
		CBCells: make([]CBCell, 0, cbCells),
		tracks:  make([]int32, nodes*width),
	}
	// picks holds the current net's assigned tracks, Signals per tree node
	// in NetRoutes order; slot[node] is the node's position in that order
	// plus one, cleared again once the net is done.
	picks := make([]int, maxPicks)
	slot := make([]int32, nodes)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		tree := res.NetRoutes[ni]
		assigned := func(node int) []int {
			at := int(slot[node]-1) * net.Signals
			return picks[at : at+net.Signals]
		}
		// Assign `signals` tracks on every tree node, first-fit.
		for k, node := range tree {
			row := cfg.tracks[node*width : (node+1)*width]
			got := picks[k*net.Signals : k*net.Signals : (k+1)*net.Signals]
			for t := 0; t < width && len(got) < net.Signals; t++ {
				if row[t] == 0 {
					row[t] = int32(ni + 1)
					got = append(got, t)
				}
			}
			if len(got) < net.Signals {
				return nil, fmt.Errorf("bitstream: net %d needs %d tracks on node %d, found %d free",
					ni, net.Signals, node, len(got))
			}
			slot[node] = int32(k + 1)
		}
		// Switch-box cells along every tree hop, one per signal.
		for _, e := range res.NetEdges[ni] {
			ta, tb := assigned(e.A), assigned(e.B)
			for s := 0; s < net.Signals; s++ {
				cfg.SBCells = append(cfg.SBCells, SBCell{
					NodeA: e.A, TrackA: ta[s],
					NodeB: e.B, TrackB: tb[s],
					Net: ni, Signal: s,
				})
			}
		}
		// Connection-box cells: the source block drives the tree nodes
		// at its own site; each sink block listens on one tree node at
		// its site.
		srcSite := pl.Pos[net.Src]
		srcDone := false
		for _, node := range tree {
			if _, s := route.NodeSite(chip, node); s == srcSite {
				for k, t := range assigned(node) {
					cfg.CBCells = append(cfg.CBCells, CBCell{
						Block: net.Src, Node: node, Track: t, Net: ni, Signal: k, Source: true,
					})
				}
				srcDone = true
			}
		}
		if !srcDone {
			return nil, fmt.Errorf("bitstream: net %d has no tree node at its source site", ni)
		}
		for _, sink := range net.Sinks {
			site := pl.Pos[sink]
			attached := false
			for _, node := range tree {
				if _, s := route.NodeSite(chip, node); s == site {
					for k, t := range assigned(node) {
						cfg.CBCells = append(cfg.CBCells, CBCell{
							Block: sink, Node: node, Track: t, Net: ni, Signal: k, Source: false,
						})
					}
					attached = true
					break
				}
			}
			if !attached {
				return nil, fmt.Errorf("bitstream: net %d has no tree node at sink block %d's site", ni, sink)
			}
		}
		for _, node := range tree {
			slot[node] = 0
		}
	}
	return cfg, nil
}

// CellCount returns the number of programmed (low-resistance) ReRAM cells
// — the configuration's size.
func (c *Config) CellCount() int { return len(c.SBCells) + len(c.CBCells) }

// TrackOccupancy returns the busiest channel's used-track count.
func (c *Config) TrackOccupancy() int {
	width := c.Chip.Tracks
	if width <= 0 {
		return 0
	}
	busiest := 0
	for at := 0; at+width <= len(c.tracks); at += width {
		used := 0
		for _, t := range c.tracks[at : at+width] {
			if t != 0 {
				used++
			}
		}
		busiest = max(busiest, used)
	}
	return busiest
}

// Verify interprets the programmed cells only — no routing data — and
// checks electrical correctness:
//
//  1. every cell sits on a (channel node, track) of the fabric that its
//     own net owns — a track has one owner, so no two nets are shorted;
//  2. for every net, every listening CB cell is reachable from a driving
//     CB cell through programmed SB cells (per-net connectivity);
//  3. every net has at least one driver and the expected listener count.
func (c *Config) Verify(nl *netlist.Netlist) error {
	width := c.Chip.Tracks
	nodes := 2 * c.Chip.W * c.Chip.H
	if len(c.tracks) != nodes*width {
		return fmt.Errorf("bitstream: track table has %d slots, chip has %d nodes of %d tracks", len(c.tracks), nodes, width)
	}
	// slot returns the flat index node·width + track of a cell's end after
	// checking that the end is on the fabric and owned by the cell's net.
	slot := func(kind string, node, track, net int) (int, error) {
		if net < 0 || net >= len(nl.Nets) {
			return 0, fmt.Errorf("bitstream: %s cell of net %d, netlist has %d nets", kind, net, len(nl.Nets))
		}
		if node < 0 || node >= nodes || track < 0 || track >= width {
			return 0, fmt.Errorf("bitstream: %s cell of net %d at node %d track %d is off the fabric", kind, net, node, track)
		}
		if owner := int(c.tracks[node*width+track]) - 1; owner != net {
			return 0, fmt.Errorf("bitstream: %s cell of net %d on foreign track (owner %d)", kind, net, owner)
		}
		return node*width + track, nil
	}
	// Union-find over slots, seeded by SB cells; all driver slots of a net
	// are additionally merged (they share the source block's output pin
	// through its CB).
	parent := make([]int, len(c.tracks))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, cell := range c.SBCells {
		a, err := slot("SB", cell.NodeA, cell.TrackA, cell.Net)
		if err != nil {
			return err
		}
		b, err := slot("SB", cell.NodeB, cell.TrackB, cell.Net)
		if err != nil {
			return err
		}
		parent[find(a)] = find(b)
	}
	driver := make([]int, len(nl.Nets)) // net → its first driving slot, −1 none
	for i := range driver {
		driver[i] = -1
	}
	for _, cell := range c.CBCells {
		s, err := slot("CB", cell.Node, cell.Track, cell.Net)
		if err != nil {
			return err
		}
		if !cell.Source {
			continue
		}
		if driver[cell.Net] < 0 {
			driver[cell.Net] = s
		} else {
			parent[find(driver[cell.Net])] = find(s) // joined at the source block's pins
		}
	}
	listeners := make([]int, len(nl.Nets)) // net → listening cells seen
	for _, cell := range c.CBCells {
		if cell.Source {
			continue
		}
		if driver[cell.Net] < 0 {
			return fmt.Errorf("bitstream: net %d has no driver", cell.Net)
		}
		if find(cell.Node*width+cell.Track) != find(driver[cell.Net]) {
			return fmt.Errorf("bitstream: net %d listener at node %d track %d unreachable from source",
				cell.Net, cell.Node, cell.Track)
		}
		listeners[cell.Net]++
	}
	for ni := range nl.Nets {
		if driver[ni] < 0 {
			return fmt.Errorf("bitstream: net %d has no driver", ni)
		}
		if want := len(nl.Nets[ni].Sinks) * nl.Nets[ni].Signals; listeners[ni] != want {
			return fmt.Errorf("bitstream: net %d has %d listener cells, want %d", ni, listeners[ni], want)
		}
	}
	return nil
}
