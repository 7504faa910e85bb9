// Package device models the ReRAM cell substrate FPSA is built on: multi-
// level cells with programming variation, the splice and add weight-
// representation methods (paper §7.2), and the 45 nm circuit cost constants
// the paper takes from NVSim and Synopsys Design Compiler (Tables 1 and 2).
//
// Conductances are handled in "level units": a cell programmed to level L
// contributes L (plus Gaussian programming noise) to the column current sum.
// This normalization is exact for everything the paper derives, because only
// conductance ratios appear in the spiking-PE equations (Eq. 1-6).
package device

import "math/rand"

// CellSpec describes one multi-level ReRAM cell.
type CellSpec struct {
	// Bits is the programmable resolution; the cell holds 2^Bits levels.
	Bits int
	// Sigma is the standard deviation of the programmed conductance in
	// level units (cycle-to-cycle plus programming variation, per the
	// fabricated-array data of Yao et al. [49] as used in Figure 9).
	Sigma float64
	// WriteEndurance is the approximate number of SET/RESET cycles the
	// cell survives (~1e12 for ReRAM; the reason SMBs use SRAM, §4.3).
	WriteEndurance float64
}

// Cell4Bit is the cell used throughout the paper's evaluation: 16 levels,
// with a moderate programming variation for the functional simulator.
var Cell4Bit = CellSpec{Bits: 4, Sigma: 0.45, WriteEndurance: 1e12}

// Cell4BitMeasured carries the per-cell variation calibrated against the
// fabricated-array behaviour the paper cites [49] as it manifests at our
// substitute network's scale: with this sigma, the PRIME configuration
// (two spliced 4-bit cells) reproduces Figure 9's ~70 % normalized
// accuracy, and the add-method curve is then *measured*, not fitted (see
// internal/experiments Figure9).
var Cell4BitMeasured = CellSpec{Bits: 4, Sigma: 1.6, WriteEndurance: 1e12}

// Levels returns the number of programmable conductance levels.
func (c CellSpec) Levels() int { return 1 << c.Bits }

// MaxLevel returns the highest programmable level (Levels-1).
func (c CellSpec) MaxLevel() int { return c.Levels() - 1 }

// Program returns the conductance (in level units) that results from
// programming the cell to the given level, including Gaussian programming
// variation drawn from rng. A nil rng programs the ideal value, and level
// is clamped to the representable range, mirroring a real write-verify
// loop that saturates at the extreme states.
func (c CellSpec) Program(level int, rng *rand.Rand) float64 {
	var noise float64
	if c.draws(rng) {
		noise = rng.NormFloat64() * c.Sigma
	}
	return c.conductance(level, noise)
}

// draws reports whether programming with rng draws variation.
func (c CellSpec) draws(rng *rand.Rand) bool { return rng != nil && c.Sigma > 0 }

// conductance is the cell's device model: level, clamped to the
// representable range, moved by the drawn noise and floored at zero —
// conductance cannot go negative; the device saturates at its
// highest-resistance state. It is small enough to inline, so a loop over
// many cells (ProgramWeight's add case) tests draws once and pays no call
// per cell beyond the draw itself.
func (c CellSpec) conductance(level int, noise float64) float64 {
	return max(float64(min(max(level, 0), c.MaxLevel()))+noise, 0)
}

// NormalizedDeviation is the ratio between the conductance standard
// deviation of a single cell and its representable range, the metric §7.2
// uses to compare representation methods.
func (c CellSpec) NormalizedDeviation() float64 {
	return c.Sigma / float64(c.MaxLevel())
}
