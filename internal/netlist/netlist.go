// Package netlist defines the function-block netlist — the mapper's output
// and the placement & routing tool's input (paper Figure 5): typed block
// instances (PE, SMB, CLB) connected by multi-terminal nets.
package netlist

import (
	"fmt"

	"fpsa/internal/device"
)

// BlockType is the kind of function block.
type BlockType int

// Block types.
const (
	BlockPE BlockType = iota
	BlockSMB
	BlockCLB
)

// String renders the block type.
func (t BlockType) String() string {
	switch t {
	case BlockPE:
		return "PE"
	case BlockSMB:
		return "SMB"
	case BlockCLB:
		return "CLB"
	default:
		return fmt.Sprintf("block(%d)", int(t))
	}
}

// Block is one function-block instance.
type Block struct {
	ID   int
	Type BlockType
	Name string
	// GroupID links PEs (and their buffers/controllers) back to the
	// core-op weight group they serve; −1 when not applicable.
	GroupID int
	// Copy distinguishes duplicated PEs of one group.
	Copy int
	// Fault is the residual stuck-cell count of a PE's crossbar under the
	// deployment's fault model (after spare-row/column remapping) — the
	// placement cost penalty weight. 0 for non-PE blocks and unfaulted
	// deployments.
	Fault int
}

// Net is one logical connection from a source block to sink blocks. The
// Signals field is the bundle width (number of spike-train wires the net
// carries); the router expands wide nets into that many routed signals.
type Net struct {
	ID      int
	Src     int
	Sinks   []int
	Signals int
}

// Netlist is the mapper's output.
type Netlist struct {
	Name   string
	Blocks []Block
	Nets   []Net
}

// AddBlock appends a block and returns its ID.
func (n *Netlist) AddBlock(t BlockType, name string, groupID, copyIdx int) int {
	id := len(n.Blocks)
	n.Blocks = append(n.Blocks, Block{ID: id, Type: t, Name: name, GroupID: groupID, Copy: copyIdx})
	return id
}

// AddNet appends a net and returns its ID.
func (n *Netlist) AddNet(src int, sinks []int, signals int) int {
	id := len(n.Nets)
	n.Nets = append(n.Nets, Net{ID: id, Src: src, Sinks: append([]int(nil), sinks...), Signals: signals})
	return id
}

// Counts returns the number of blocks of each type.
func (n *Netlist) Counts() (pes, smbs, clbs int) {
	for _, b := range n.Blocks {
		switch b.Type {
		case BlockPE:
			pes++
		case BlockSMB:
			smbs++
		case BlockCLB:
			clbs++
		}
	}
	return
}

// BlockAreaUM2 returns the total area of a function-block inventory. The
// mrFPGA routing fabric is stacked above the blocks in metal layers M5-M9
// and occupies less area than the blocks (paper §6.1), so block area is
// chip area.
func BlockAreaUM2(p device.Params, pes, smbs, clbs int) float64 {
	return float64(pes)*p.PETotal.AreaUM2 + float64(smbs)*p.SMB.AreaUM2 + float64(clbs)*p.CLB.AreaUM2
}

// AreaUM2 returns the netlist's total function-block area.
func (n *Netlist) AreaUM2(p device.Params) float64 {
	pes, smbs, clbs := n.Counts()
	return BlockAreaUM2(p, pes, smbs, clbs)
}

// Validate checks referential integrity.
func (n *Netlist) Validate() error {
	for _, net := range n.Nets {
		if net.Src < 0 || net.Src >= len(n.Blocks) {
			return fmt.Errorf("netlist: net %d source %d out of range", net.ID, net.Src)
		}
		if len(net.Sinks) == 0 {
			return fmt.Errorf("netlist: net %d has no sinks", net.ID)
		}
		if net.Signals <= 0 {
			return fmt.Errorf("netlist: net %d has %d signals", net.ID, net.Signals)
		}
		for _, s := range net.Sinks {
			if s < 0 || s >= len(n.Blocks) {
				return fmt.Errorf("netlist: net %d sink %d out of range", net.ID, s)
			}
			if s == net.Src {
				return fmt.Errorf("netlist: net %d loops back to its source", net.ID)
			}
		}
	}
	for i, b := range n.Blocks {
		if b.ID != i {
			return fmt.Errorf("netlist: block %q ID %d at index %d", b.Name, b.ID, i)
		}
	}
	return nil
}
