// Package xbar is the shared batched crossbar kernel behind the
// functional execution stack (internal/synth, internal/serve,
// internal/chipsim). It models one programmed ReRAM crossbar — with the
// neurons of internal/spike on its columns, the paper's PE (§4.2) — as
// flat row-major buffers and evaluates whole micro-batches of
// input vectors per call: the programming cost of a weight matrix — and
// of everything derived from it once, such as the packed kernel's column
// supports, tables and lane-packed conductances — is amortized across
// every vector that streams through it. Per-item cost in the spiking
// kernel does not fall with batch size; what a batch saves is the
// per-call overhead above the kernel.
//
// Two views of the same computation are provided, from fastest to most
// circuit-faithful, and the callers' test suites prove they agree with the
// historical per-item paths bit for bit:
//
//  1. Crossbar.ReferenceBatch: the integer reference semantics
//     Y_j = clamp(max(0, floor(P_j/η) − floor(N_j/η)), Γ) over a batch,
//     read the way the PE reads it — a positive and a negative column in
//     one shot: each cell's two ideal magnitudes share one 64-bit word, so
//     one integer multiply-add per cell accumulates P in the high half and
//     N in the low half of the same sum — on an amd64 CPU with AVX2, four
//     cells' eight 32-bit halves per instruction, with the same numbers.
//  2. Crossbar.SimulateCountsBatch: the cycle-level spiking simulation
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
	"math"
	"math/rand"
	"sync/atomic"

	"fpsa/internal/device"
	"fpsa/internal/spike"
)

// rowBlock is the reference kernel's tile height: a rowBlock×cols weight
// panel is streamed against every batch item before moving to the next
// panel, so the panel stays cache-hot across the whole batch.
const rowBlock = 32

// polarityShift places a cell's positive magnitude above its negative one
// in a packW word; lowHalf masks the negative half back out.
const (
	polarityShift = 32
	lowHalf       = 1<<polarityShift - 1
)

// referenceVMM is the reference kernel: for every item b and column j it
// leaves in dst[b*cols+j] the packed drive sum
//
//	Σ_i clamp(src[b*rows+i], Γ) · packW[i*cols+j] = P<<32 | N
//
// over flat row-major buffers — src is batch×rows, packW rows×cols, dst
// batch×cols (overwritten; the int holds the uint64's bits). One integer
// multiply-add per cell computes both polarities: a clamped count is at
// most Γ and a magnitude at most maxW, so N ≤ rows·Γ·maxW < 2^32 (Program
// refuses anything larger) and the low half never carries into the high
// one. Integer sums are exact in any order, so the result does not depend
// on the blocking and a zero count needs no branch.
//
// The loop is blocked over weight rows; within a panel eight (then four,
// then single) output columns at a time are carried in registers down the
// panel's rows, so no sum is stored and reloaded between rows — a chain
// through memory that once made the kernel's speed depend on where the
// linker placed it (docs/ARCHITECTURE.md, "The reference kernel and code
// alignment"). Each item's panel counts are clamped once, into a stack
// array, before the column blocks read them; a count already in [0, Γ] —
// every count one stage feeds the next — costs one predicted compare.
//
// With AVX2 (laneAVX2) the column blocks of four are referenceAVX2's
// instead: eight polarity halves per VPMULLD, as 32-bit lanes, which
// cannot wrap for the same reason the low half cannot carry. The columns
// past the last multiple of four take the single-column loop either way.
func referenceVMM(dst []int, packW []uint64, src []int, batch, rows, cols, window int) {
	_ = dst[batch*cols-1]
	_ = src[batch*rows-1]
	_ = packW[rows*cols-1]
	clear(dst[:batch*cols])
	quads := 0
	if laneAVX2 {
		quads = cols / 4
	}
	var xs [rowBlock]uint64
	for i0 := 0; i0 < rows; i0 += rowBlock {
		i1 := min(i0+rowBlock, rows)
		for b := 0; b < batch; b++ {
			in := src[b*rows+i0 : b*rows+i1]
			x := xs[:len(in)]
			for i, v := range in {
				if uint(v) > uint(window) {
					v = min(max(v, 0), window)
				}
				x[i] = uint64(v)
			}
			o := dst[b*cols : (b+1)*cols]
			j := 0
			if quads > 0 {
				referenceAVX2(&o[0], &packW[i0*cols], &x[0], len(x), cols, quads)
				j = 4 * quads
			}
			for ; j+8 <= cols; j += 8 {
				acc := o[j : j+8 : j+8]
				a0, a1, a2, a3 := uint64(acc[0]), uint64(acc[1]), uint64(acc[2]), uint64(acc[3])
				a4, a5, a6, a7 := uint64(acc[4]), uint64(acc[5]), uint64(acc[6]), uint64(acc[7])
				at := i0*cols + j
				for _, xv := range x {
					w := packW[at : at+8 : at+8]
					a0 += xv * w[0]
					a1 += xv * w[1]
					a2 += xv * w[2]
					a3 += xv * w[3]
					a4 += xv * w[4]
					a5 += xv * w[5]
					a6 += xv * w[6]
					a7 += xv * w[7]
					at += cols
				}
				acc[0], acc[1], acc[2], acc[3] = int(a0), int(a1), int(a2), int(a3)
				acc[4], acc[5], acc[6], acc[7] = int(a4), int(a5), int(a6), int(a7)
			}
			for ; j+4 <= cols; j += 4 {
				acc := o[j : j+4 : j+4]
				a0, a1, a2, a3 := uint64(acc[0]), uint64(acc[1]), uint64(acc[2]), uint64(acc[3])
				at := i0*cols + j
				for _, xv := range x {
					w := packW[at : at+4 : at+4]
					a0 += xv * w[0]
					a1 += xv * w[1]
					a2 += xv * w[2]
					a3 += xv * w[3]
					at += cols
				}
				acc[0], acc[1], acc[2], acc[3] = int(a0), int(a1), int(a2), int(a3)
			}
			for ; j < cols; j++ {
				a := uint64(o[j])
				at := i0*cols + j
				for _, xv := range x {
					a += xv * packW[at]
					at += cols
				}
				o[j] = int(a)
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

// Crossbar is one programmed crossbar: the ideal integer weights of both
// polarities (reference path) and the programmed — possibly noisy —
// conductances (spiking path), all in flat row-major buffers.
type Crossbar struct {
	rows, cols int
	eta        float64
	window     int

	// packW holds the ideal |weight| magnitudes, row-major rows×cols, one
	// word per cell: the positive polarity's above polarityShift, the
	// negative one's below.
	packW []uint64
	// posG/negG hold the programmed conductance sums (level units,
	// possibly with variation), row-major rows×cols.
	posG, negG []float64

	// What the spiking kernel does is decided by the structural facts
	// classifyProgramming derives from the conductances (see packed.go).
	// trainTab, silentTab, rowG, floatG and laneG are fetched/built when the
	// kernel first needs them.
	maxDrive  float64   // largest per-polarity walk-column sum; +Inf unless sums are exact and no value < 0
	tabCols   []tabCol  // columns answered from a table over their support counts
	walkCols  []int     // columns the cycle walk must step, ascending
	trainTab  []uint64  // shared (window+1)×Lanes(window) uniform trains
	silentTab []uint64  // shared complements of trainTab within the window (lane walk)
	rowG      []float64 // portable float walk: rows×2·cols conductances, posG row then negG row per row
	floatG    []float64 // AVX2 float walk: rows float lane rows (see floatHalf)
	laneG     []uint64  // rows lane rows: walk-column conductances in 16-bit lanes (see laneHalf)

	// faulted is the number of stuck logical cells Program masked into
	// this crossbar (after any remapping upstream).
	faulted int

	// Kernel counters (see KernelStats), atomic because serve.Engine reads
	// them while executor goroutines run.
	sparseN, denseN atomic.Uint64
	spikeN, slotN   atomic.Uint64

	// Scratch reused across batch calls (not concurrency-safe).
	//
	// Integer-lane walk scratch (see walkLanes): shared by both bodies,
	// sized with laneG, then each body's own per-cycle drives, sized on its
	// first call.
	present     []uint64   // Lanes(window): bit k set when some row fires k+1 times
	countG      []uint64   // Γ+1 lane rows: row k sums the rows firing k+1 times, row Γ those above Γ/2
	laneDrv     []lanePair // portable: ⌈walkCols/4⌉×window per-cycle drives
	laneDrvAVX2 []uint64   // AVX2: window lane rows of per-cycle drives
	firedAVX2   []uint16   // AVX2: output counts, one lane per walked column

	// Portable float-walk scratch (see simulateCountsPacked).
	unitG     [][]float64 // per-unit conductance rows, 2·cols wide
	unitCount []int       // per-unit firing counts
	live      []uint64    // Lanes(window) union of the current item's unit trains
	evCycles  []int       // live cycles of the current item, ascending
	rank      []int       // window: live cycle t → its index in evCycles
	drvAll    []float64   // live×2·cols accumulated drives (P then N per cycle)

	// AVX2 float-walk scratch (see walkFloatAVX2), sized with floatG; the
	// assembly leaves floatDrv and floatLive zero between items.
	floatDrv   []float64 // window float lane rows of per-cycle drives
	floatLive  []uint64  // Lanes(window) union of the current item's unit trains
	floatFired []int64   // output counts, one lane per walked column
}

// Program writes a logical weight matrix weights[i][j] (row-major,
// rows × cols, integers in [−Rep.MaxWeight(), Rep.MaxWeight()]) into a
// fresh crossbar. Positive parts go to the positive polarity, negative
// magnitudes to the negative one. The reference kernel sums both
// polarities in one 64-bit word, which is exact only while a column's
// largest drive, rows·Γ·MaxWeight, stays below 2^32; Program refuses a
// crossbar whose bound reaches it. A nil rng programs ideal conductances;
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
	window := cfg.Params.SamplingWindow()
	// The largest drive one polarity can sum; Γ is a power of two, so the
	// float64 product is exact.
	if drive := float64(rows) * float64(window) * float64(maxW); drive >= 1<<polarityShift {
		return nil, fmt.Errorf("xbar: drive bound %d rows × Γ %d × max weight %d = %.0f does not fit the reference kernel's 32-bit polarity half", rows, window, maxW, drive)
	}
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
		window: window,
		packW:  make([]uint64, rows*cols),
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
			c.packW[k] = uint64(pos)<<polarityShift | uint64(neg)
			c.posG[k] = device.ProgramWeight(cfg.Rep, cfg.Spec, pos, rng)
			c.negG[k] = device.ProgramWeight(cfg.Rep, cfg.Spec, neg, rng)
		}
	}
	if mask != nil && (mask.Drift > 0 || mask.ReadSigma > 0) {
		// Analog aging, applied to the programmed conductances only (the
		// ideal packW stays exact): multiplicative drift relaxation,
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
// dst flat batch×cols. Each count is first clamped to [0, Γ], as
// SimulateCountsBatch clamps it, so both kernels answer a batch exactly as
// they answer its clamped copy. P and N are exact integers (see
// referenceVMM), and the epilogue divides their float64 values by η, so
// on counts in [0, Γ] the per-element semantics equal the historical
// one-vector reference path bit for bit at every η, fractional ones
// included.
//
// P and N are below 2^32, so at a finite η ≥ 2^−31 both quotients are
// below 2^63 and int() truncates them exactly. At any other η — zero, tiny,
// negative, infinite or NaN — a quotient may be NaN or out of int's range,
// where Go leaves the conversion to the architecture; the epilogue then
// converts with saturatingInt, so every GOARCH answers alike.
func (c *Crossbar) ReferenceBatch(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	referenceVMM(dst, c.packW, src, batch, c.rows, c.cols, c.window)
	if c.eta >= 0x1p-31 && c.eta <= math.MaxFloat64 {
		for k, a := range dst {
			p, n := uint64(a)>>polarityShift, uint64(a)&lowHalf
			y := int(float64(p)/c.eta) - int(float64(n)/c.eta)
			dst[k] = spike.Clamp(y, c.window)
		}
		return nil
	}
	for k, a := range dst {
		p, n := uint64(a)>>polarityShift, uint64(a)&lowHalf
		y := saturatingInt(float64(p)/c.eta) - saturatingInt(float64(n)/c.eta)
		dst[k] = spike.Clamp(y, c.window)
	}
	return nil
}

// saturatingInt is int(f) with the cases Go leaves to the architecture
// defined: NaN converts to 0, and a value past int's range to math.MaxInt
// or math.MinInt (what arm64's conversion does in hardware).
func saturatingInt(f float64) int {
	switch {
	case f != f:
		return 0
	case f >= -math.MinInt:
		return math.MaxInt
	case f < math.MinInt:
		return math.MinInt
	}
	return int(f)
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
// from tables; the rest are stepped in 16-bit integer lanes when the
// conductances are ideal and η is one no column can saturate (as the
// synthesizer's always is) — sixteen columns per instruction on an amd64
// CPU with AVX2, four per uint64 word elsewhere, with the same numbers —
// or else by the float walk over one drive unit per firing row, four
// float64 columns per instruction with AVX2 and one at a time elsewhere,
// again with the same numbers. Its output is bit-identical to the paper's
// PE run item by item (SimulateCountsBatchDense), which the test suites
// keep as its oracle.
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
