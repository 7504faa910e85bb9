// Package clb models FPSA's configurable logic block (paper §4.4): a
// bundle of SRAM-based k-input LUTs, flip-flops, and multiplexers that
// implements the control logic the spatial-to-temporal mapper generates
// (reset signals at window boundaries, buffer read/write strobes, weight
// time-multiplexing selects).
//
// Besides the LUT/FF primitives, the package includes a small structural
// synthesizer that builds a schedule controller — a mod-P cycle counter
// plus comparator-driven event outputs — out of those primitives, so the
// mapper's CLB budgets are grounded in actual logic-synthesis LUT counts
// rather than guesses.
package clb

import (
	"fmt"

	"fpsa/internal/device"
)

// LUT is a k-input look-up table: any boolean function of up to k inputs.
type LUT struct {
	inputs int
	table  []bool // 2^inputs entries
}

// NewLUT builds a LUT from an explicit truth table; len(table) must be a
// power of two not exceeding 2^k for the fabric's k.
func NewLUT(table []bool) (*LUT, error) {
	n := len(table)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("clb: truth table length %d is not a power of two", n)
	}
	inputs := 0
	for v := n; v > 1; v >>= 1 {
		inputs++
	}
	return &LUT{inputs: inputs, table: append([]bool(nil), table...)}, nil
}

// LUTFromFunc samples a boolean function of `inputs` variables into a LUT.
func LUTFromFunc(inputs int, f func(in []bool) bool) (*LUT, error) {
	if inputs < 0 || inputs > 16 {
		return nil, fmt.Errorf("clb: %d LUT inputs unsupported", inputs)
	}
	table := make([]bool, 1<<uint(inputs))
	in := make([]bool, inputs)
	for idx := range table {
		for b := 0; b < inputs; b++ {
			in[b] = idx&(1<<uint(b)) != 0
		}
		table[idx] = f(in)
	}
	return NewLUT(table)
}

// Inputs returns the LUT fan-in.
func (l *LUT) Inputs() int { return l.inputs }

// Eval evaluates the LUT; in[b] is input bit b (LSB-first indexing).
func (l *LUT) Eval(in []bool) (bool, error) {
	if len(in) != l.inputs {
		return false, fmt.Errorf("clb: %d inputs to %d-input LUT", len(in), l.inputs)
	}
	idx := 0
	for b, v := range in {
		if v {
			idx |= 1 << uint(b)
		}
	}
	return l.table[idx], nil
}

// BlocksNeeded returns how many CLBs a controller consuming the given
// number of LUTs occupies.
func BlocksNeeded(params device.Params, luts int) int {
	if luts <= 0 {
		return 0
	}
	return (luts + params.CLBLUTs - 1) / params.CLBLUTs
}
