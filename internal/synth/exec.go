package synth

import (
	"fmt"
	"math"
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

// Program is an executable synthesized network (FC graphs with supplied
// weights). Stages are topologically ordered; outputs are read at
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

// ExecMode selects how Program.Run evaluates each core-op.
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
	// spikeKernel, when set, stands in for (*xbar.Crossbar).SimulateCountsBatch
	// at runStages' one spiking call site (through Executor.kernel). Only
	// this package's tests can set it: they pass SimulateCountsBatchDense,
	// the kernel's oracle, to get an oracle executor to compare the
	// production one against.
	spikeKernel func(c *xbar.Crossbar, dst, src []int, batch int) error
}

// Run executes the program on one input vector of spike counts in [0, Γ]
// and returns the output counts at the network's output refs. Each call
// programs a fresh set of crossbars (in ModeSpikingNoisy, drawing fresh
// variation from opts.Rng) — which costs the variation draws and the
// conductance buffers, nothing derived from the compile: fault masks are
// remembered by opts.Faults. Serving loops that classify many samples
// should still build one Executor and reuse its programmed state.
func (p *Program) Run(input []int, opts RunOptions) ([]int, error) {
	// Validate before programming so a bad input neither costs a full
	// programming pass nor advances opts.Rng's variation stream. (A caller
	// that derives opts.Rng from a stream of its own calls Validate
	// before drawing, for the same reason.)
	if err := p.Validate(input); err != nil {
		return nil, err
	}
	ex, err := NewExecutor(p, opts)
	if err != nil {
		return nil, err
	}
	return ex.Run(input)
}

// RunBatch executes the program on a whole micro-batch of input vectors,
// programming each weight group once for the batch (in ModeSpikingNoisy,
// drawing one set of variation from opts.Rng that every item shares — one
// physical chip serving the batch) and streaming all items through each
// stage together. Results are positional and bit-identical to per-item
// Run calls on an equally programmed Executor. Like Run, a call pays for
// its programming pass but not for re-deriving fault masks, and a batch
// with a bad item is rejected before anything is programmed or drawn.
// Serving loops should build one Executor and call its RunBatch instead,
// amortizing programming across batches as well.
func (p *Program) RunBatch(inputs [][]int, opts RunOptions) ([][]int, error) {
	if err := p.ValidateBatch(inputs); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, nil
	}
	ex, err := NewExecutor(p, opts)
	if err != nil {
		return nil, err
	}
	return ex.runBatch(inputs)
}

// Validate checks one input vector's length and window range without
// programming or executing anything — the pre-flight for callers that must
// reject a bad input before spending anything on it (SpikingNet, so a
// rejected call does not advance its variation stream).
func (p *Program) Validate(input []int) error {
	if err := p.validateInput(input); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	return nil
}

// ValidateBatch is Validate over a micro-batch, naming the first bad item.
func (p *Program) ValidateBatch(inputs [][]int) error {
	for b, in := range inputs {
		if err := p.validateInput(in); err != nil {
			return fmt.Errorf("synth: batch item %d: %w", b, err)
		}
	}
	return nil
}

// validateInput checks the input vector's length and window range.
func (p *Program) validateInput(input []int) error {
	if len(input) != p.InputSize {
		return fmt.Errorf("input length %d, want %d", len(input), p.InputSize)
	}
	window := p.Params.SamplingWindow()
	for i, v := range input {
		if v < 0 || v > window {
			return fmt.Errorf("input[%d] = %d outside [0,%d]", i, v, window)
		}
	}
	return nil
}

// FloatReference evaluates the same quantized pipeline in real arithmetic
// (no floors, no window clamping) — the mathematical function the spiking
// program approximates. Useful for quantifying spiking error in tests.
func (p *Program) FloatReference(input []int) ([]float64, error) {
	if len(input) != p.InputSize {
		return nil, fmt.Errorf("synth: input length %d, want %d", len(input), p.InputSize)
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

// Argmax returns the index of the largest count (ties to the lowest index).
func Argmax(v []int) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
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

// QuantizeInput maps real-valued features in [0,1] to window counts.
func QuantizeInput(features []float64, window int) []int {
	return quantizeInto(make([]int, len(features)), features, window)
}

// QuantizeBatch is QuantizeInput over a batch, into one flat slab: each
// row is a capacity-capped view of it (as gatherOutputs' rows are), so an
// append through one row can never spill into the next.
func QuantizeBatch(batch [][]float64, window int) [][]int {
	total := 0
	for _, f := range batch {
		total += len(f)
	}
	slab := make([]int, total)
	rows := make([][]int, len(batch))
	for i, f := range batch {
		rows[i] = quantizeInto(slab[:len(f):len(f)], f, window)
		slab = slab[len(f):]
	}
	return rows
}

// quantizeInto writes each feature's count: round(f·Γ) clamped to [0, Γ].
// It clamps in float64 before converting: Go leaves converting ±Inf, NaN or
// a value at or past 2^63 to int to the platform (amd64 yields the minimum
// int, which would clamp to 0 where arm64 saturates to Γ), so a huge or
// infinite feature gives Γ on every platform, and NaN gives 0.
func quantizeInto(counts []int, features []float64, window int) []int {
	top := float64(window)
	for i, f := range features {
		switch x := f * top; {
		case x >= top:
			counts[i] = window
		case x > 0:
			counts[i] = int(math.Round(x))
		default: // x ≤ 0 or NaN
			counts[i] = 0
		}
	}
	return counts
}
