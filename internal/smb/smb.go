// Package smb sizes FPSA's spiking memory block (paper §4.3): an SRAM
// buffer that stores spike *counts* rather than spike trains, with embedded
// counters (train → count on write) and spike generators (count → evenly
// spaced train on read). Storing counts is what makes on-chip buffering
// affordable: an n-bit count replaces a 2^n-cycle train.
//
// The internal memory is bit-indexed so any power-of-two sampling window
// fits: with window Γ = 2^n, counts are stored n bits by n bits, so a full
// window count of Γ saturates to Γ−1 (the usual fixed-point convention).
// SRAM is used rather than ReRAM because buffer traffic would exhaust
// ReRAM's ~1e12 write endurance.
//
// The mapper needs only the block's capacity: BlocksNeeded sizes the SMB
// bank behind a buffered edge.
package smb

import "fpsa/internal/device"

// BlocksNeeded returns the number of 16 Kb SMBs required to buffer the
// given number of count signals at the given window.
func BlocksNeeded(params device.Params, signals, window int) int {
	if signals <= 0 {
		return 0
	}
	n := 0
	for w := window; w > 1; w >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	perBlock := params.SMBCapacityBits / n
	return (signals + perBlock - 1) / perBlock
}
