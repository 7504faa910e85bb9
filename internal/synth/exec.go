package synth

import (
	"errors"
	"fmt"
	"math/rand"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/xbar"
)

// ExternalStage marks an ExecRef as reading the network's external input.
const ExternalStage = -1

// ZeroStage marks an ExecRef as a constant-zero signal (convolution
// padding rows).
const ZeroStage = -2

// ExecRef identifies the producer of one logical signal: a column of an
// earlier stage's output, an element of the external input vector, or the
// constant zero.
type ExecRef struct {
	Stage int // ExternalStage, ZeroStage, or index into Program.Stages
	Col   int
}

// ExecStage is one executable core-op: a weight group plus the refs feeding
// each of its rows.
type ExecStage struct {
	GroupID int
	InRefs  []ExecRef
}

// Program is an executable synthesized network (a graph synthesized with
// trained weights). Stages are topologically ordered; outputs are read at
// OutputRefs.
type Program struct {
	Graph      *coreop.Graph
	Params     device.Params
	Stages     []ExecStage
	OutputRefs []ExecRef
	InputSize  int
}

// Compile synthesizes g functionally: it requires opts.Weights and returns
// both the core-op graph and the executable program.
func Compile(g *cgraph.Graph, opts Options) (*coreop.Graph, *Program, error) {
	if opts.Weights == nil {
		return nil, nil, fmt.Errorf("synth: Compile requires Options.Weights")
	}
	return synthesize(g, opts)
}

// ExecMode selects how an Executor evaluates each core-op.
type ExecMode int

// Execution modes.
const (
	// ModeReference runs the integer reference semantics
	// (floor(P/η)−floor(N/η) with ReLU and window clamping).
	ModeReference ExecMode = iota
	// ModeSpiking runs the full cycle-level spiking PE simulation with
	// ideal devices.
	ModeSpiking
	// ModeSpikingNoisy runs the cycle-level simulation on conductances
	// programmed with device variation (requires Rng).
	ModeSpikingNoisy
)

// modeNames spells the modes the way the CLIs do.
var modeNames = [...]string{ModeReference: "reference", ModeSpiking: "spiking", ModeSpikingNoisy: "noisy"}

// String names the mode the way the CLIs spell it.
func (m ExecMode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// RunOptions configures Program execution.
type RunOptions struct {
	Mode ExecMode
	// Rng supplies programming variation for ModeSpikingNoisy.
	Rng *rand.Rand
	// Spec overrides the cell spec (default device.Cell4Bit).
	Spec device.CellSpec
	// Faults, when active, injects the device fault scenario into every
	// crossbar the program runs on: each weight group's stuck-cell map is
	// a deterministic function of (Faults, group ID), so every worker
	// replica and every chip of a sharded deployment sees identical
	// faults — unlike programming variation, which is per-replica. With
	// Faults.Remap the logical weight region is steered around known-bad
	// cells using the crossbar's spare rows and columns. An inactive (or
	// nil) model is bit-identical to no faults at all.
	Faults *device.FaultModel
	// spikeKernel, when set, stands in for (*xbar.Crossbar).Simulate at
	// runStages' one spiking call site (through Executor.kernel). Only this
	// package's tests can set it: they pass SimulateCountsBatchDense, the
	// kernel's oracle, to get an oracle executor to compare the production
	// one against.
	spikeKernel func(c *xbar.Crossbar, dst, src []uint16, batch int) error
}

// ValidateBatch checks every input vector's length and window range
// without programming or executing anything, naming the first bad item.
// It is Executor.RunBatch's pre-flight, and stays with it for bench/
// (ROADMAP item 1(f)).
func (p *Program) ValidateBatch(inputs [][]int) error {
	window := p.Params.SamplingWindow()
	for b, in := range inputs {
		if err := p.validateInput(in, window); err != nil {
			return fmt.Errorf("synth: batch item %d: %w", b, err)
		}
	}
	return nil
}

// validateInput checks the input vector's length and range against the
// program's sampling window, which the caller reads once per batch
// (SamplingWindow copies the whole device.Params).
func (p *Program) validateInput(input []int, window int) error {
	if err := p.checkLength(len(input)); err != nil {
		return err
	}
	for i, v := range input {
		if v < 0 || v > window {
			return fmt.Errorf("input[%d] = %d outside [0,%d]", i, v, window)
		}
	}
	return nil
}

// ErrInputLength is wrapped by every error for an input vector whose
// length is not the program's InputSize, spike counts and features alike.
var ErrInputLength = errors.New("input length")

// checkLength is validateInput's length half: the whole check for rows
// that quantization built, whose counts are in [0, Γ] by construction.
func (p *Program) checkLength(n int) error {
	if n != p.InputSize {
		return fmt.Errorf("%w %d, want %d", ErrInputLength, n, p.InputSize)
	}
	return nil
}

// FloatReference evaluates the same quantized pipeline in real arithmetic
// (no floors, no window clamping) — the mathematical function the spiking
// program approximates. Useful for quantifying spiking error in tests; it
// stays exported for bench/ (ROADMAP item 1(f)).
func (p *Program) FloatReference(input []int) ([]float64, error) {
	if err := p.checkLength(len(input)); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	outputs := make([][]float64, len(p.Stages))
	for si, st := range p.Stages {
		grp := p.Graph.Groups[st.GroupID]
		x := make([]float64, len(st.InRefs))
		for r, ref := range st.InRefs {
			switch ref.Stage {
			case ExternalStage:
				x[r] = float64(input[ref.Col])
			case ZeroStage:
				x[r] = 0
			default:
				x[r] = outputs[ref.Stage][ref.Col]
			}
		}
		out := make([]float64, grp.Cols)
		for j := 0; j < grp.Cols; j++ {
			var acc float64
			for i := 0; i < grp.Rows; i++ {
				acc += float64(grp.Weights[i][j]) * x[i]
			}
			v := acc / grp.Eta
			if v < 0 {
				v = 0
			}
			out[j] = v
		}
		outputs[si] = out
	}
	result := make([]float64, len(p.OutputRefs))
	for i, ref := range p.OutputRefs {
		if ref.Stage == ExternalStage {
			result[i] = float64(input[ref.Col])
			continue
		}
		result[i] = outputs[ref.Stage][ref.Col]
	}
	return result, nil
}

// Argmax returns the index of the largest count (ties to the lowest
// index). It stays exported for bench/ (ROADMAP item 1(f)); the executor
// reads its uint16 tables with argmax.
func Argmax(v []int) int { return argmax(v) }

// argmax is Argmax over either count type. The running maximum stays in
// a register, and its updates compile to conditional moves: which count
// wins is data, and a branch on it mispredicts.
func argmax[T int | uint16](v []T) int {
	if len(v) == 0 {
		return 0
	}
	best, top := 0, v[0]
	for i, x := range v {
		if x > top {
			best, top = i, x
		}
	}
	return best
}

// ArgmaxFloat returns the index of the largest value.
func ArgmaxFloat(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// QuantizeInput maps real-valued features in [0,1] to window counts, as
// Executor.RunFeatures quantizes each row (xbar.Quantize, so 0 ≤ Γ ≤
// xbar.MaxWindow). It stays exported for bench/ (ROADMAP item 1(f)).
func QuantizeInput(features []float64, window int) []int {
	narrow := make([]uint16, len(features))
	xbar.Quantize(narrow, [][]float64{features}, window)
	counts := make([]int, len(features))
	for i, v := range narrow {
		counts[i] = int(v)
	}
	return counts
}
