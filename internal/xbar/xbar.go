// Package xbar is the shared batched crossbar kernel behind the
// functional execution stack (internal/synth, internal/serve). It models
// one programmed ReRAM crossbar — with the neurons of internal/spike on
// its columns, the paper's PE (§4.2) — as flat row-major buffers and
// evaluates whole micro-batches of input vectors per call: the programming
// cost of a weight matrix — and of everything derived from it once, such
// as the packed kernel's column supports, tables and lane-packed
// conductances — is amortized across every vector that streams through
// it. Per-item cost in the spiking kernel does not fall with batch size;
// what a batch saves is the per-call overhead above the kernel.
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
//     N in the low half of the same sum — on an amd64 CPU with AVX2, two
//     rows of four cells per instruction, their magnitudes and counts as
//     16-bit halves, with the same numbers.
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
	"math/bits"
	"math/rand"
	"sync/atomic"

	"fpsa/internal/device"
	"fpsa/internal/hostcpu"
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

// The code is 64-bit only: the reference kernel keeps each packed
// P<<32|N sum in an int, which on a 32-bit target drops the P half.
// packedSumsNeed64BitInt is negative there, so this array length fails
// the build with an error naming it instead of computing wrong counts.
const packedSumsNeed64BitInt = bits.UintSize - 64

var _ [packedSumsNeed64BitInt]struct{}

// referenceVMM is the reference kernel's portable body: for every item b
// and column j it leaves in dst[b*cols+j] the packed drive sum
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
// It runs off amd64, without AVX2, and on a crossbar with no pair rows
// (Γ or maxW of 2^15 or more); referenceSums picks it.
func referenceVMM(dst []int, packW []uint64, src []int, batch, rows, cols, window int) {
	_ = dst[batch*cols-1]
	_ = src[batch*rows-1]
	_ = packW[rows*cols-1]
	clear(dst[:batch*cols])
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

// referenceSums leaves a batch's packed drive sums in dst, as
// referenceVMM defines them: with AVX2 (laneAVX2) on a crossbar with pair
// rows, through referenceAVX2, and through referenceVMM otherwise.
//
// The AVX2 kernel multiplies two weight rows by their two counts and adds
// the products with one VPMADDWD — four cells' N and P dwords per
// instruction, each dword the sum over a row pair. Its operands are
// 16-bit: a clamped count is at most Γ < 2^15 and a magnitude at most
// maxW < 2^15, so each product pair is below 2^31 and a column's sum below
// 2^32 as in referenceVMM (docs/INVARIANTS.md, "Reference lanes"). One
// call takes a whole row panel for every item of the batch: it clamps each
// item's panel counts once, reading src in place, and carries the sums in
// registers down the panel's pair rows.
func (c *Crossbar) referenceSums(dst, src []int, batch int) {
	rows, cols := c.rows, c.cols
	if !laneAVX2 || c.pairW == nil {
		referenceVMM(dst, c.packW, src, batch, rows, cols, c.window)
		return
	}
	_ = dst[batch*cols-1]
	_ = src[batch*rows-1]
	clear(dst[:batch*cols])
	for i0 := 0; i0 < rows; i0 += rowBlock {
		referenceAVX2(&dst[0], &c.pairW[i0/2*cols], &src[i0], min(rowBlock, rows-i0), rows, cols, batch, c.window)
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
	// pairW holds the same magnitudes two rows to a word for the AVX2
	// reference kernel (referenceSums), ⌈rows/2⌉×cols: the word of pair k
	// and column j holds n_2k, n_2k+1, p_2k, p_2k+1 as 16-bit halves from
	// the low end, with an odd last row paired with zeros. It shares
	// packW's allocation, and is nil without AVX2 or when Γ or maxW
	// reaches 2^15, past a signed 16-bit operand.
	pairW []uint64
	// posG/negG hold the programmed conductance sums (level units,
	// possibly with variation), row-major rows×cols.
	posG, negG []float64

	// What the spiking kernel does is decided by the structural facts
	// classifyProgramming derives from the conductances (see packed.go).
	// trainTab, silentTab, floatG and laneG are fetched/built when the
	// kernel first needs them; a draw pass empties floatG, which is rebuilt
	// in its own capacity, and drops laneG.
	maxDrive  float64    // largest per-polarity walk-column sum; +Inf unless sums are exact and no value < 0
	negFree   bool       // every walked column ideal with an empty negative polarity (see negativeFree)
	tabCols   []tabCol   // columns answered from a table over their support counts
	nTabs     int        // distinct tables the tabCols index (see sameSupport)
	tables    [][]uint16 // nTabs tables, each empty until first used (see tabulate); SetEta and Redraw empty them
	walkCols  []int      // columns the cycle walk must step, ascending
	colSum    []float64  // classifyProgramming's per-polarity column sums, kept for the next pass
	trainTab  []uint64   // shared (window+1)×Lanes(window) uniform trains
	silentTab []uint64   // shared complements of trainTab within the window (lane walk)
	floatG    []float64  // float walk, both bodies: rows float lane rows (see floatHalf)
	laneG     []uint64   // rows lane rows: walk-column conductances in 16-bit lanes (see laneHalf)

	// What the draw pass programs with (see Redraw): the cell and weight
	// representation from the Config.
	rep  device.Representation
	spec device.CellSpec

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
	// first call; a draw pass drops them with laneG.
	present     []uint64   // Lanes(window): bit k set when some row fires k+1 times
	countG      []uint64   // Γ+1 lane rows: row k sums the rows firing k+1 times, row Γ those above Γ/2
	laneDrv     []lanePair // portable: ⌈walkCols/4⌉×window per-cycle drives
	laneDrvAVX2 []uint64   // AVX2: window lane rows of per-cycle drives
	firedAVX2   []uint16   // AVX2: output counts, one lane per walked column

	// Float-walk scratch (see walkFloat), sized with floatG: both bodies
	// share floatDrv and floatLive and leave them zero between items;
	// floatFired is the AVX2 body's output.
	floatDrv   []float64 // window float lane rows of per-cycle drives
	floatLive  []uint64  // Lanes(window) union of the current item's firing rows' trains
	floatFired []int64   // AVX2: output counts, one lane per walked column
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
// FuzzProgramFaultedVsMasked).
//
// Programming is two steps: the buffers are allocated and packW filled
// with the fault-masked magnitudes, then the draw pass (Redraw) turns
// packW into conductances.
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
	n, pairRows := rows*cols, 0
	if hostcpu.AVX2 && window < 1<<15 && maxW < 1<<15 {
		pairRows = (rows + 1) / 2
	}
	packW := make([]uint64, n+pairRows*cols)
	c := &Crossbar{
		rows:   rows,
		cols:   cols,
		eta:    eta,
		window: window,
		rep:    cfg.Rep,
		spec:   cfg.Spec,
		packW:  packW[:n:n],
		posG:   make([]float64, n),
		negG:   make([]float64, n),
	}
	if pairRows > 0 {
		c.pairW = packW[n:]
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
			c.packW[i*cols+j] = uint64(pos)<<polarityShift | uint64(neg)
			if c.pairW != nil {
				half := 16 * uint(i%2)
				c.pairW[i/2*cols+j] |= uint64(pos)<<(polarityShift+half) | uint64(neg)<<half
			}
		}
	}
	c.Redraw(rng)
	return c, nil
}

// Redraw is the programming pass Program ends with, and re-programs a
// programmed crossbar in place with fresh variation from rng: every cell's
// positive then negative magnitude, read from packW, is programmed in
// column-major order; then classifyProgramming rederives the kernel's
// structural facts. Whatever the kernel built from earlier conductances —
// tables, the float and integer lane rows — is dropped here: the tables and
// the float lane rows are rebuilt in their own buffers on first use, the
// integer lane rows in new ones. So after a Redraw the
// crossbar equals a fresh Program of the same Config and weights from
// rng's state (FuzzRedrawVsProgram), except that an η set by SetEta is
// kept, and a crossbar that has already run its kernel redraws without
// allocating (TestRedrawAllocs).
func (c *Crossbar) Redraw(rng *rand.Rand) {
	rows, cols := c.rows, c.cols
	for j := 0; j < cols; j++ {
		for k := j; k < rows*cols; k += cols {
			pos, neg := int(c.packW[k]>>polarityShift), int(c.packW[k]&lowHalf)
			c.posG[k] = device.ProgramWeight(c.rep, c.spec, pos, rng)
			c.negG[k] = device.ProgramWeight(c.rep, c.spec, neg, rng)
		}
	}
	c.rederive()
}

// rederive drops what the kernel built from earlier conductances and
// rederives its structural facts from the current ones (see Redraw).
func (c *Crossbar) rederive() {
	c.floatG = c.floatG[:0]
	// Only ideal conductances ride the integer lanes (laneEligible), and
	// only noisy ones are ever redrawn per call, so the lane rows and their
	// scratch are dropped rather than kept for reuse.
	c.laneG, c.laneDrv, c.laneDrvAVX2, c.firedAVX2 = nil, nil, nil, nil
	c.classifyProgramming()
	c.dropTables()
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
	c.dropTables()
}

// dropTables empties the table list and every table in its capacity,
// keeping each buffer: tabulated resizes the list to nTabs and refills a
// table of length 0 on first use.
func (c *Crossbar) dropTables() {
	all := c.tables[:cap(c.tables)]
	for i := range all {
		all[i] = all[i][:0]
	}
	c.tables = c.tables[:0]
}

// grow returns buf resized to n, reusing capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf resized to n with every element zero, reusing
// capacity.
func zeroed[T any](buf []T, n int) []T {
	buf = grow(buf, n)
	clear(buf)
	return buf
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
// they answer its clamped copy. P and N are exact integers below 2^32 (see
// referenceVMM), and on counts in [0, Γ] the per-element semantics equal
// the historical one-vector reference path, which divides their float64
// values by η, bit for bit at every η, fractional ones included.
//
// The epilogue has three branches, picked once per call from η:
//   - η integral in [1, 2^32) — every η the synthesizer emits: the
//     quotients are integer ones, P−N at η = 1 and otherwise one
//     multiply-high each (integerEpilogue). They equal the float
//     quotients' truncations exactly (docs/INVARIANTS.md, "Integral-η
//     reference epilogue ≡ float division").
//   - any other finite η ≥ 2^−31: both float quotients are below 2^63 and
//     int() truncates them exactly.
//   - any other η — zero, tiny, negative, infinite or NaN: a quotient may
//     be NaN or out of int's range, where Go leaves the conversion to the
//     architecture; the epilogue then converts with saturatingInt, so
//     every GOARCH answers alike.
func (c *Crossbar) ReferenceBatch(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.referenceSums(dst, src, batch)
	if c.eta >= 1 && c.eta < 1<<polarityShift && c.eta == float64(uint64(c.eta)) {
		integerEpilogue(dst, uint64(c.eta), c.window)
		return nil
	}
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

// integerEpilogue turns each packed drive word of dst into
// clamp(⌊P/η⌋ − ⌊N/η⌋, Γ) for an integral η in [1, 2^32). Each quotient
// is the high word of P·m with m = ⌈2^64/η⌉ (Lemire, Kaser and Kurz 2019:
// exact for every dividend below 2^32 and divisor below 2^32); η = 1,
// whose m does not fit 64 bits (it wraps to 0), is P − N. With AVX2
// (laneAVX2) epilogueAVX2 answers the words in blocks of four and the
// scalar loop below the last few.
func integerEpilogue(dst []int, eta uint64, window int) {
	m := math.MaxUint64/eta + 1
	if laneAVX2 && len(dst) >= 4 {
		n := len(dst) &^ 3
		epilogueAVX2(&dst[0], n/4, m, min(uint64(window), lowHalf))
		dst = dst[n:]
	}
	if eta == 1 {
		for k, a := range dst {
			y := int(uint64(a)>>polarityShift) - int(uint64(a)&lowHalf)
			dst[k] = spike.Clamp(y, window)
		}
		return
	}
	for k, a := range dst {
		p, _ := bits.Mul64(uint64(a)>>polarityShift, m)
		n, _ := bits.Mul64(uint64(a)&lowHalf, m)
		dst[k] = spike.Clamp(int(p)-int(n), window)
	}
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
// CPU with AVX2, four per uint64 word elsewhere, with the same numbers,
// and by the reference kernel's arithmetic when, besides, no walked column
// has a negative conductance, where the counts are the same —
// or else by the float walk over the firing rows' float lane rows, four
// float64 columns per instruction with AVX2 and per block step elsewhere,
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
// kernel's float walk keeps. With ideal neurons and uniform trains it is
// SimulateCountsBatchDense, the kernel's oracle.
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
