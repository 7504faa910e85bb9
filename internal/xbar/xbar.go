// Package xbar is the shared batched crossbar kernel behind the
// functional execution stack (internal/synth, internal/serve,
// internal/chipsim). It models one programmed ReRAM crossbar — with the
// neurons of internal/spike on its columns, the paper's PE (§4.2) — as
// flat row-major []float64 buffers and evaluates whole micro-batches of
// input vectors per call: the programming cost of a weight matrix — and
// of everything derived from it once, such as the packed kernel's column
// supports, tables and lane-packed conductances — is amortized across
// every vector that streams through it. Per-item cost in the spiking
// kernel does not fall with batch size; what a batch saves is the
// per-call overhead above the kernel.
//
// Three views of the same computation are provided, from fastest to most
// circuit-faithful, and the callers' test suites prove they agree with the
// historical per-item paths bit for bit:
//
//  1. VMMBatch: the raw blocked batched vector-matrix product on flat
//     buffers — the hot loop everything else is built from.
//  2. Crossbar.ReferenceBatch: the integer reference semantics
//     Y_j = clamp(max(0, floor(P_j/η) − floor(N_j/η)), Γ) over a batch.
//  3. Crossbar.SimulateCountsBatch: the cycle-level spiking simulation
//     (ideal accumulate-and-fire neurons and spike subtracters) by the
//     structure-aware kernel. Its oracle, SimulateCountsBatchDense, is
//     SimulateTrains — the paper's PE built from internal/spike's
//     UniformTrain, Neuron and Subtracter, or a caller-supplied neuron
//     model — run one item at a time; the spiking semantics are written
//     once, there.
//
// A Crossbar's batch methods reuse internal scratch buffers and are NOT
// safe for concurrent use — hold one Crossbar (or one synth.Executor) per
// goroutine, exactly as each replica chip carries its own programmed
// arrays.
package xbar

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// rowBlock is the VMMBatch tile height: a rowBlock×cols weight panel is
// streamed against every batch item before moving to the next panel, so
// the panel stays cache-hot across the whole batch.
const rowBlock = 32

// VMMBatch computes the batched vector-matrix product
//
//	out[b*cols+j] = Σ_i in[b*rows+i] · weights[i*cols+j]
//
// over flat row-major buffers: in is batch×rows, weights is rows×cols,
// out is batch×cols (overwritten). The loop is blocked over weight rows
// and accumulates in float64; for integer-valued operands below 2^53 the
// result is exact regardless of blocking, which is what lets the integer
// reference semantics ride on the float kernel unchanged.
//
// Within a panel, eight (then four, then single) output columns at a time
// are carried in registers down the panel's rows: each output element still
// adds the same products — the non-zero inputs', in ascending row order —
// so the result is bit-identical to the plain row-by-row o[j] += x·w loop,
// but no sum is stored and reloaded between rows. That chain through
// memory made the loop's speed depend on where the linker happened to
// place it (docs/ARCHITECTURE.md, "VMMBatch and code alignment").
func VMMBatch(out, weights, in []float64, batch, rows, cols int) {
	if batch == 0 || rows == 0 || cols == 0 {
		return
	}
	_ = out[batch*cols-1]
	_ = in[batch*rows-1]
	_ = weights[rows*cols-1]
	for k := range out[:batch*cols] {
		out[k] = 0
	}
	for i0 := 0; i0 < rows; i0 += rowBlock {
		i1 := min(i0+rowBlock, rows)
		for b := 0; b < batch; b++ {
			x := in[b*rows+i0 : b*rows+i1]
			o := out[b*cols : (b+1)*cols]
			j := 0
			for ; j+8 <= cols; j += 8 {
				acc := o[j : j+8 : j+8]
				a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
				at := i0*cols + j
				for _, xv := range x {
					if xv != 0 {
						w := weights[at : at+8 : at+8]
						a0 += xv * w[0]
						a1 += xv * w[1]
						a2 += xv * w[2]
						a3 += xv * w[3]
						a4 += xv * w[4]
						a5 += xv * w[5]
						a6 += xv * w[6]
						a7 += xv * w[7]
					}
					at += cols
				}
				acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
			}
			for ; j+4 <= cols; j += 4 {
				acc := o[j : j+4 : j+4]
				a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
				at := i0*cols + j
				for _, xv := range x {
					if xv != 0 {
						w := weights[at : at+4 : at+4]
						a0 += xv * w[0]
						a1 += xv * w[1]
						a2 += xv * w[2]
						a3 += xv * w[3]
					}
					at += cols
				}
				acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
			}
			for ; j < cols; j++ {
				a := o[j]
				at := i0*cols + j
				for _, xv := range x {
					if xv != 0 {
						a += xv * weights[at]
					}
					at += cols
				}
				o[j] = a
			}
		}
	}
}

// Config parameterizes crossbar programming: the one description of a
// PE's devices, shared by the executor and the chip-level simulation.
type Config struct {
	// Params supplies crossbar geometry and the sampling window.
	Params device.Params
	// Spec is the ReRAM cell used.
	Spec device.CellSpec
	// Rep maps logical weight magnitudes onto parallel cells.
	Rep device.Representation
	// Eta is the neuron threshold η in conductance units; zero means
	// "use Rep.MaxWeight()".
	Eta float64
	// Faults, when non-nil and active, is the device fault state Program
	// applies: stuck logical cells override the weight matrix before the
	// polarity split (stuck-low reads 0, stuck-high +Rep.MaxWeight()), so
	// the ideal weights and the programmed conductances both see the same
	// faults — which is what keeps the reference, spiking and noisy modes,
	// and the spiking kernel and its dense oracle, on identical faulted state.
	// Drift and static read offsets then perturb the conductances alone.
	// An inactive mask is bit-identical to no mask at all.
	Faults *device.FaultMask
}

// Crossbar is one programmed crossbar: the ideal integer weights split by
// polarity (reference path) and the programmed — possibly noisy —
// conductances (spiking path), all in flat row-major buffers.
type Crossbar struct {
	rows, cols int
	eta        float64
	window     int

	// posW/negW hold the ideal |weight| magnitudes by polarity,
	// row-major rows×cols, as exact float64 integers.
	posW, negW []float64
	// posG/negG hold the programmed conductance sums (level units,
	// possibly with variation), row-major rows×cols.
	posG, negG []float64

	// What the spiking kernel does is decided by the structural facts
	// classifyProgramming derives from the conductances (see packed.go).
	// trainTab, rowG and laneG are fetched/built when the kernel first
	// needs them.
	maxDrive float64    // largest per-polarity walk-column sum; +Inf unless sums are exact and no value < 0
	tabCols  []tabCol   // columns answered from a table over their support counts
	walkCols []int      // columns the cycle walk must step, ascending
	trainTab []uint64   // shared (window+1)×Lanes(window) uniform trains
	rowG     []float64  // rows×2·cols conductances, posG row then negG row per row
	laneG    []lanePair // rows×⌈walkCols/4⌉ walk-column conductances in 16-bit lanes

	// faulted is the number of stuck logical cells Program masked into
	// this crossbar (after any remapping upstream).
	faulted int

	// Kernel counters (see KernelStats), atomic because serve.Engine reads
	// them while executor goroutines run.
	sparseN, denseN atomic.Uint64
	spikeN, slotN   atomic.Uint64

	// Scratch reused across batch calls (not concurrency-safe).
	xf         []float64 // batch×rows float inputs
	accP, accN []float64 // batch×cols reference accumulators

	// Integer-lane walk scratch, sized with laneG (see walkLanes).
	present []uint64   // Lanes(window): bit k set when some row fires k+1 times
	countG  []lanePair // ⌈walkCols/4⌉×window: lane rows summed per firing count
	denseG  []lanePair // ⌈walkCols/4⌉: sum of countG over the counts above Γ/2
	laneDrv []lanePair // ⌈walkCols/4⌉×window: per-cycle drives

	// Float-walk scratch (see simulateCountsPacked).
	unitG     [][]float64 // per-unit conductance rows, 2·cols wide
	unitCount []int       // per-unit firing counts
	live      []uint64    // Lanes(window) union of the current item's unit trains
	evCycles  []int       // live cycles of the current item, ascending
	rank      []int       // window: live cycle t → its index in evCycles
	drvAll    []float64   // live×2·cols accumulated drives (P then N per cycle)
}

// Program writes a logical weight matrix weights[i][j] (row-major,
// rows × cols, integers in [−Rep.MaxWeight(), Rep.MaxWeight()]) into a
// fresh crossbar. Positive parts go to the positive polarity, negative
// magnitudes to the negative one. A nil rng programs ideal conductances;
// otherwise each cell draws Gaussian programming variation from rng in
// column-major (j, then i, positive before negative) order — the draw
// order the historical PE model used, so seeded variation streams
// reproduce bit for bit.
//
// With an active cfg.Faults mask, stuck cells override the logical
// weight before the polarity split — so programming a faulted crossbar
// is bit-identical to programming the manually masked weight matrix,
// including the noisy draw stream (each cell draws exactly one variation
// sample regardless of its weight value; fuzz-pinned by
// FuzzProgramFaultedVsMasked). Drift then relaxes every conductance by
// (1−Drift)× and ReadSigma adds a static per-cell offset drawn from the
// mask's own read stream, never touching rng.
func Program(cfg Config, weights [][]int, rng *rand.Rand) (*Crossbar, error) {
	rows := len(weights)
	if rows == 0 || len(weights[0]) == 0 {
		return nil, fmt.Errorf("xbar: empty weight matrix")
	}
	cols := len(weights[0])
	if rows > cfg.Params.CrossbarRows {
		return nil, fmt.Errorf("xbar: %d rows exceed crossbar rows %d", rows, cfg.Params.CrossbarRows)
	}
	if cols > cfg.Params.LogicalColumns() {
		return nil, fmt.Errorf("xbar: %d cols exceed logical columns %d", cols, cfg.Params.LogicalColumns())
	}
	maxW := cfg.Rep.MaxWeight()
	for i := range weights {
		if len(weights[i]) != cols {
			return nil, fmt.Errorf("xbar: ragged weight matrix at row %d", i)
		}
	}
	eta := cfg.Eta
	if eta <= 0 {
		eta = float64(maxW)
	}
	c := &Crossbar{
		rows:   rows,
		cols:   cols,
		eta:    eta,
		window: cfg.Params.SamplingWindow(),
		posW:   make([]float64, rows*cols),
		negW:   make([]float64, rows*cols),
		posG:   make([]float64, rows*cols),
		negG:   make([]float64, rows*cols),
	}
	var mask *device.FaultMask
	if cfg.Faults.Active() {
		mask = cfg.Faults
		if mask.Rows != rows || mask.Cols != cols {
			return nil, fmt.Errorf("xbar: fault mask is %dx%d, weights are %dx%d", mask.Rows, mask.Cols, rows, cols)
		}
		c.faulted = mask.Faulted
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			w := weights[i][j]
			if w > maxW || w < -maxW {
				return nil, fmt.Errorf("xbar: weight %d at (%d,%d) exceeds |%d|", w, i, j, maxW)
			}
			if mask != nil {
				switch mask.Stuck(i, j) {
				case device.FaultStuckLow:
					w = 0
				case device.FaultStuckHigh:
					w = maxW
				}
			}
			pos, neg := 0, 0
			if w >= 0 {
				pos = w
			} else {
				neg = -w
			}
			k := i*cols + j
			c.posW[k] = float64(pos)
			c.negW[k] = float64(neg)
			c.posG[k] = device.ProgramWeight(cfg.Rep, cfg.Spec, pos, rng)
			c.negG[k] = device.ProgramWeight(cfg.Rep, cfg.Spec, neg, rng)
		}
	}
	if mask != nil && (mask.Drift > 0 || mask.ReadSigma > 0) {
		// Analog aging, applied to the programmed conductances only (the
		// ideal posW/negW stay exact): multiplicative drift relaxation,
		// then a static per-cell read offset from the mask's own seeded
		// stream — row-major, positive before negative per cell — so the
		// main programming-variation stream rng is never advanced.
		scale := 1 - mask.Drift
		var rrng *rand.Rand
		if mask.ReadSigma > 0 {
			rrng = rand.New(rand.NewSource(mask.ReadSeed))
		}
		perturb := func(g float64) float64 {
			g *= scale
			if rrng != nil {
				g += rrng.NormFloat64() * mask.ReadSigma
			}
			if g < 0 {
				g = 0
			}
			return g
		}
		for k := range c.posG {
			c.posG[k] = perturb(c.posG[k])
			c.negG[k] = perturb(c.negG[k])
		}
	}
	c.classifyProgramming()
	return c, nil
}

// Rows reports the programmed logical row count.
func (c *Crossbar) Rows() int { return c.rows }

// FaultedCells reports how many stuck logical cells the fault mask
// pinned in this crossbar (0 without a mask).
func (c *Crossbar) FaultedCells() int { return c.faulted }

// Cols reports the programmed logical column count.
func (c *Crossbar) Cols() int { return c.cols }

// Eta returns the neuron threshold η.
func (c *Crossbar) Eta() float64 { return c.eta }

// Window returns the sampling window Γ.
func (c *Crossbar) Window() int { return c.window }

// SetEta overrides the neuron threshold η and drops everything derived
// from the old one: the tabulated columns' tables are refilled on demand.
func (c *Crossbar) SetEta(eta float64) {
	c.eta = eta
	for i := range c.tabCols {
		c.tabCols[i].table = nil
	}
}

// grow returns buf resized to n, reusing capacity.
func grow[T float64 | int | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// checkBatch validates a flat batch buffer pair.
func (c *Crossbar) checkBatch(dst, src []int, batch int) error {
	if len(src) != batch*c.rows {
		return fmt.Errorf("xbar: input length %d, want %d (batch %d × %d rows)", len(src), batch*c.rows, batch, c.rows)
	}
	if len(dst) != batch*c.cols {
		return fmt.Errorf("xbar: output length %d, want %d (batch %d × %d cols)", len(dst), batch*c.cols, batch, c.cols)
	}
	return nil
}

// ReferenceBatch computes the integer reference output for a batch of
// spike-count vectors: dst[b*cols+j] = clamp(max(0, floor(P/η) −
// floor(N/η)), Γ), with P/N the positive and negative drive sums of item
// b's inputs against the ideal logical weights. src is flat batch×rows,
// dst flat batch×cols. The per-element semantics equal the historical
// one-vector reference path exactly: all intermediate values are integers
// far below 2^53, so the float accumulation is exact.
func (c *Crossbar) ReferenceBatch(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.xf = grow(c.xf, batch*c.rows)
	for k, v := range src {
		c.xf[k] = float64(v)
	}
	c.accP = grow(c.accP, batch*c.cols)
	c.accN = grow(c.accN, batch*c.cols)
	VMMBatch(c.accP, c.posW, c.xf, batch, c.rows, c.cols)
	VMMBatch(c.accN, c.negW, c.xf, batch, c.rows, c.cols)
	for k := range dst {
		y := int(c.accP[k]/c.eta) - int(c.accN[k]/c.eta)
		if y < 0 {
			y = 0
		}
		dst[k] = spike.Clamp(y, c.window)
	}
	return nil
}

// SimulateCountsBatch runs the cycle-level spiking simulation with ideal
// accumulate-and-fire neurons for a batch of spike-count vectors: each
// input count becomes a uniform train (the SMB spike-generator pattern),
// the programmed — possibly noisy — conductances drive the column
// neurons cycle by cycle, and dst receives the subtracter output counts.
// src is flat batch×rows, dst flat batch×cols. Per item it reproduces
// UniformTrain → Simulate → Count on the historical PE bit for bit. Items
// are independent and cost the same at any batch size; one call per
// micro-batch saves only the call overhead.
//
// One kernel backs it, the structure-aware simulateCountsPacked, and what
// that kernel does is a function of the programmed crossbar alone — never of
// the batch's density or of an option: small-support columns are answered
// from tables; the rest are stepped four to a word in integer lanes when the
// conductances are ideal and η is one no column can saturate (as the
// synthesizer's always is), or else by the float walk over one drive unit
// per firing row. Its output is bit-identical to the paper's PE run item by
// item (SimulateCountsBatchDense), which the test suites keep as its oracle.
// Call counts and the observed input density are exposed through
// KernelStats.
func (c *Crossbar) SimulateCountsBatch(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.probeDensity(src, batch)
	c.sparseN.Add(1)
	c.simulateCountsPacked(dst, src, batch)
	return nil
}

// SimulateTrains runs the cycle-level simulation over one sampling window
// of explicit input spike trains with a caller-supplied neuron model,
// returning the output spike trains of the subtracters: the paper's PE
// (§4.2) composed from internal/spike's parts. Each cycle sums the firing
// rows' conductances per column in ascending row order — the order the
// kernel's float walk keeps. internal/chipsim runs each PE on it, and with
// ideal neurons and uniform trains it is SimulateCountsBatchDense, the
// kernel's oracle.
func (c *Crossbar) SimulateTrains(inputs []spike.Train, newNeuron func(eta float64) spike.Stepper) ([]spike.Train, error) {
	if len(inputs) != c.rows {
		return nil, fmt.Errorf("xbar: %d input trains, want %d", len(inputs), c.rows)
	}
	window := c.window
	for i, tr := range inputs {
		if tr.Window() != window {
			return nil, fmt.Errorf("xbar: input %d window %d, want %d", i, tr.Window(), window)
		}
	}
	posN := make([]spike.Stepper, c.cols)
	negN := make([]spike.Stepper, c.cols)
	subs := make([]spike.Subtracter, c.cols)
	outs := make([]spike.Train, c.cols)
	for j := range outs {
		posN[j] = newNeuron(c.eta)
		negN[j] = newNeuron(c.eta)
		outs[j] = spike.NewTrain(window)
	}
	drvP := make([]float64, c.cols)
	drvN := make([]float64, c.cols)
	for t := 0; t < window; t++ {
		for j := range drvP {
			drvP[j], drvN[j] = 0, 0
		}
		for i := 0; i < c.rows; i++ {
			if !inputs[i][t] {
				continue
			}
			pg := c.posG[i*c.cols : (i+1)*c.cols]
			ng := c.negG[i*c.cols : (i+1)*c.cols]
			for j := range drvP {
				drvP[j] += pg[j]
				drvN[j] += ng[j]
			}
		}
		for j := 0; j < c.cols; j++ {
			sp := posN[j].Step(drvP[j])
			sn := negN[j].Step(drvN[j])
			outs[j][t] = subs[j].Step(sp, sn)
		}
	}
	return outs, nil
}
