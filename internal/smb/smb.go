// Package smb models FPSA's spiking memory block (paper §4.3): an SRAM
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
package smb

import (
	"fmt"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// SMB is one spiking memory block instance.
type SMB struct {
	params device.Params
	window int
	bits   []bool
	writes int64 // lifetime write counter (endurance accounting)
}

// New returns an SMB configured for the given sampling window, which must
// be a power of two (bit indexing, §4.3).
func New(params device.Params, window int) (*SMB, error) {
	if !spike.IsPow2(window) {
		return nil, fmt.Errorf("smb: window %d is not a power of two", window)
	}
	return &SMB{
		params: params,
		window: window,
		bits:   make([]bool, params.SMBCapacityBits),
	}, nil
}

// CountBits returns the per-count storage width n = log2(Γ).
func (s *SMB) CountBits() int {
	n := 0
	for w := s.window; w > 1; w >>= 1 {
		n++
	}
	return n
}

// Slots returns how many counts the block can hold at the current window.
func (s *SMB) Slots() int { return len(s.bits) / s.CountBits() }

// Window returns the configured sampling window Γ.
func (s *SMB) Window() int { return s.window }

// Writes returns the lifetime number of count writes (endurance metric).
func (s *SMB) Writes() int64 { return s.writes }

// WriteCount stores a spike count in a slot. Counts clamp to [0, Γ−1].
func (s *SMB) WriteCount(slot, count int) error {
	n := s.CountBits()
	if slot < 0 || slot >= s.Slots() {
		return fmt.Errorf("smb: slot %d out of range [0,%d)", slot, s.Slots())
	}
	count = spike.Clamp(count, s.window-1)
	base := slot * n
	for b := 0; b < n; b++ {
		s.bits[base+b] = count&(1<<uint(b)) != 0
	}
	s.writes++
	return nil
}

// ReadCount loads a stored spike count.
func (s *SMB) ReadCount(slot int) (int, error) {
	n := s.CountBits()
	if slot < 0 || slot >= s.Slots() {
		return 0, fmt.Errorf("smb: slot %d out of range [0,%d)", slot, s.Slots())
	}
	base := slot * n
	count := 0
	for b := 0; b < n; b++ {
		if s.bits[base+b] {
			count |= 1 << uint(b)
		}
	}
	return count, nil
}

// ReceiveTrain is the embedded counter: it counts the spikes of an incoming
// train and stores the count.
func (s *SMB) ReceiveTrain(slot int, tr spike.Train) error {
	if tr.Window() != s.window {
		return fmt.Errorf("smb: train window %d, block window %d", tr.Window(), s.window)
	}
	return s.WriteCount(slot, tr.Count())
}

// EmitTrain is the embedded spike generator: it decodes a stored count back
// into an evenly spaced spike train.
func (s *SMB) EmitTrain(slot int) (spike.Train, error) {
	count, err := s.ReadCount(slot)
	if err != nil {
		return nil, err
	}
	return spike.UniformTrain(count, s.window), nil
}

// Cost returns the published 16 Kb SMB cost triple.
func (s *SMB) Cost() device.BlockCost { return s.params.SMB }

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
