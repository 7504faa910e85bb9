// Package fabric models the FPSA chip: a W×H island-style grid of function
// block sites whose routing network (mrFPGA-style ReRAM connection boxes
// and switch boxes) is stacked above the blocks in metal layers M5-M9
// (paper §4.1, Figure 3). Chip area is therefore the larger of block area
// and routing area; in the evaluated configuration the routing layer is
// smaller (§6.1), so block area dominates.
package fabric

import (
	"fmt"
	"math"

	"fpsa/internal/device"
)

// Chip is one fabric instance.
type Chip struct {
	// W, H are the grid dimensions in sites.
	W, H int
	// Tracks is the routing channel width: wire segments per channel per
	// direction.
	Tracks int
	// Params carries the 45 nm constants.
	Params device.Params
}

// DefaultTracks is the channel width used throughout the evaluation. A PE
// has 256 spike inputs and 256 spike outputs, so channels must carry
// multiple PE-wide buses; the paper's fabric provides "massive wiring
// resources" stacked above the blocks, and at 2048 tracks the routing
// layer is still far below block area (see RoutingAreaUM2). The router
// reports when a netlist needs more.
const DefaultTracks = 2048

// SizeFor returns a square-ish chip large enough for the given block count
// (plus slack so the annealer can move blocks around).
func SizeFor(blocks, tracks int, params device.Params) (Chip, error) {
	if blocks <= 0 {
		return Chip{}, fmt.Errorf("fabric: no blocks to place")
	}
	if tracks <= 0 {
		tracks = DefaultTracks
	}
	side := int(math.Ceil(math.Sqrt(float64(blocks) * 1.25)))
	if side < 2 {
		side = 2
	}
	return Chip{W: side, H: side, Tracks: tracks, Params: params}, nil
}

// Sites returns the number of placement sites.
func (c Chip) Sites() int { return c.W * c.H }

// Site is one grid location.
type Site struct{ X, Y int }

// Valid reports whether the site lies on the chip.
func (c Chip) Valid(s Site) bool {
	return s.X >= 0 && s.X < c.W && s.Y >= 0 && s.Y < c.H
}

// Index linearizes a site.
func (c Chip) Index(s Site) int { return s.Y*c.W + s.X }

// SiteAt inverts Index.
func (c Chip) SiteAt(i int) Site { return Site{X: i % c.W, Y: i / c.W} }

// RoutingAreaUM2 estimates the stacked mrFPGA routing layer's footprint:
// every site carries one switch box (6 ReRAM switch cells per track pair
// for the disjoint pattern) and four connection boxes (one ReRAM cell per
// track per block pin side). NVSim's 45 nm ReRAM cell is 0.1µm² class at
// 4F²; we use the paper's [12]-derived per-cell constant folded into the
// ReRAM array area, normalized per cell.
func (c Chip) RoutingAreaUM2() float64 {
	// Per-cell area from the published 256×512 array with 8-cell stacks:
	// area / (256·512·8).
	cellArea := c.Params.ReRAMArraysTotal.AreaUM2 / float64(256*512*8)
	sbCells := 6 * c.Tracks
	cbCells := 4 * c.Tracks
	return float64(c.Sites()) * float64(sbCells+cbCells) * cellArea
}
