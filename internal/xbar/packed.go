package xbar

import (
	"math"
	"math/bits"
	"sync"

	"fpsa/internal/spike"
)

// Path selects which spiking kernel SimulateCountsBatch runs. The sparse
// and dense kernels are bit-identical (pinned by the property/fuzz suite
// and documented in docs/INVARIANTS.md), so Path is purely a performance
// knob.
type Path int

const (
	// PathAuto probes each micro-batch's spike density and takes the
	// packed kernel when it is at or below the sparse threshold. This is
	// the default everywhere.
	PathAuto Path = iota
	// PathDense always runs the dense cycle-level kernel.
	PathDense
	// PathSparse always runs the bit-packed kernel.
	PathSparse
)

// String renders the path as "auto", "dense" or "sparse".
func (p Path) String() string {
	switch p {
	case PathDense:
		return "dense"
	case PathSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// DefaultSparseThreshold is the PathAuto density cutoff: a micro-batch
// whose input spike density (Σ counts / (batch·rows·Γ)) is at or below it
// takes the packed kernel on a crossbar whose sums are not exact (noisy
// programming); above it the dense walk runs. Among the benchmark's
// workloads only offline_mlp_noisy_sparse programs such crossbars, so it
// is the one whose kernel choice this constant decides.
const DefaultSparseThreshold = 0.30

// KernelStats counts spiking-kernel selections and the observed input
// spike density. Counters accumulate across a Crossbar's lifetime and are
// safe to read while other goroutines execute (serve.Engine reads them
// live); executors sum them across their crossbars.
type KernelStats struct {
	// SparseBatches / DenseBatches count SimulateCountsBatch calls that
	// took the packed and the dense kernel respectively.
	SparseBatches uint64
	DenseBatches  uint64
	// Spikes and SpikeSlots accumulate the observed input spike counts
	// and the capacity (batch·rows·Γ) they were observed over; their
	// ratio is the density the auto-probe saw.
	Spikes     uint64
	SpikeSlots uint64
}

// Density returns the observed input spike density in [0, 1], or 0 before
// any spiking batch ran.
func (s KernelStats) Density() float64 {
	if s.SpikeSlots == 0 {
		return 0
	}
	return float64(s.Spikes) / float64(s.SpikeSlots)
}

// Add returns the element-wise sum of two stats records.
func (s KernelStats) Add(o KernelStats) KernelStats {
	s.SparseBatches += o.SparseBatches
	s.DenseBatches += o.DenseBatches
	s.Spikes += o.Spikes
	s.SpikeSlots += o.SpikeSlots
	return s
}

// KernelStats returns the crossbar's accumulated kernel-selection
// counters.
func (c *Crossbar) KernelStats() KernelStats {
	return KernelStats{
		SparseBatches: c.sparseN.Load(),
		DenseBatches:  c.denseN.Load(),
		Spikes:        c.spikeN.Load(),
		SpikeSlots:    c.slotN.Load(),
	}
}

// VMMBatchPacked computes the batched binary vector-matrix product over a
// bit-packed input: masks is batch×Lanes(rows) words where bit i of item
// b's lane group reports input i firing, and
//
//	out[b*cols+j] = Σ_{i: bit i set} weights[i*cols+j]
//
// It is the packed analog of VMMBatch with 0/1 inputs and is bit-identical
// to it: set rows are visited in ascending order and 1·w adds are exactly
// w adds, so the float accumulation order matches (pinned by
// FuzzVMMBatchPackedVsDense). Stray bits at or beyond rows in the last
// lane are ignored.
func VMMBatchPacked(out, weights []float64, masks []uint64, batch, rows, cols int) {
	if batch == 0 || rows == 0 || cols == 0 {
		return
	}
	lanes := spike.Lanes(rows)
	_ = out[batch*cols-1]
	_ = masks[batch*lanes-1]
	_ = weights[rows*cols-1]
	for k := range out[:batch*cols] {
		out[k] = 0
	}
	tail := uint64(0)
	if r := rows & 63; r != 0 {
		tail = 1<<uint(r) - 1
	}
	for b := 0; b < batch; b++ {
		o := out[b*cols : (b+1)*cols]
		m := masks[b*lanes : (b+1)*lanes]
		for l, word := range m {
			if l == lanes-1 && tail != 0 {
				word &= tail
			}
			base := l << 6
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				w := weights[i*cols : (i+1)*cols]
				for j, wv := range w {
					o[j] += wv
				}
			}
		}
	}
}

// SimulateCountsBatchDense forces the dense cycle-level kernel regardless
// of the configured path — the benchmark and property-test baseline.
func (c *Crossbar) SimulateCountsBatchDense(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.denseN.Add(1)
	c.simulateCountsDense(dst, src, batch)
	return nil
}

// SimulateCountsBatchPacked forces the bit-packed sparse kernel regardless
// of the configured path. Output is bit-identical to the dense kernel.
func (c *Crossbar) SimulateCountsBatchPacked(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.sparseN.Add(1)
	c.simulateCountsPacked(dst, src, batch)
	return nil
}

// probeDensity sums the clamped input spike counts of a micro-batch and
// records them in the stats counters; the returned density drives the
// auto-selection.
func (c *Crossbar) probeDensity(src []int, batch int) float64 {
	total := 0
	for _, v := range src {
		total += spike.Clamp(v, c.window)
	}
	slots := batch * c.rows * c.window
	c.spikeN.Add(uint64(total))
	c.slotN.Add(uint64(slots))
	if slots == 0 {
		return 0
	}
	return float64(total) / float64(slots)
}

// A column is tabulated when its support is at most maxSupport rows — what
// the synthesizer's pairwise-max and residual-add columns have — and its
// key space (Γ+1)^k is at most maxTabulated entries: k ≤ 2 up to Γ = 64
// (65² = 4225 keys), k ≤ 1 at Γ = 128. Both are constants, not knobs: the
// key space must stay small enough to enumerate, so that a table's hit
// rate is a property of the crossbar and not of the input stream.
const (
	maxSupport   = 2
	maxTabulated = 1 << 13
)

// tabCol is one tabulated column: its support rows (the rows with a nonzero
// conductance in either polarity, ascending) and the lazily filled table
// over the clamped counts on those rows.
type tabCol struct {
	col  int
	k    int
	rows [maxSupport]int
	// table has (Γ+1)^k entries keyed by the support counts, most
	// significant row first; 0 means not yet computed, otherwise output+1.
	// It is nil until the packed kernel first runs and after SetEta.
	table []int32
}

// trainTables memoizes uniformTrains per window. The content is a pure
// function of the key, so sharing it across crossbars, executors and
// goroutines cannot couple them.
var trainTables sync.Map // window → []uint64

// uniformTrains returns the (Γ+1)×Lanes(Γ) table of packed uniform trains
// for the window: words [count·lanes, (count+1)·lanes) hold
// spike.PackedUniform(count, Γ). UniformTrain depends only on (count, Γ),
// so the table is built once per window for the whole process — not per
// crossbar (noisy executors re-program on every call) and not per item.
func uniformTrains(window int) []uint64 {
	if t, ok := trainTables.Load(window); ok {
		return t.([]uint64)
	}
	lanes := spike.Lanes(window)
	tab := make([]uint64, (window+1)*lanes)
	for count := 1; count <= window; count++ {
		spike.AppendUniform(tab[count*lanes:(count+1)*lanes], count, window, 0, 1)
	}
	t, _ := trainTables.LoadOrStore(window, tab)
	return t.([]uint64)
}

// simulateCountsPacked is the structure-aware spiking kernel: the same
// cycle-level integrate-and-fire/subtracter semantics as the dense kernel,
// restructured around the structure the crossbar was programmed with and
// around bit-packed firing masks, so that work scales with spike events on
// the columns that need a cycle walk instead of with rows×Γ×cols.
//
// A column's output count is a pure function of the counts on its support
// rows — the rows where it has a nonzero conductance. Every other row adds
// +0.0 to a non-negative drive, which is bitwise a no-op, so it cannot
// change any value the column's neuron ever sees. classifyProgramming
// therefore splits the columns in two:
//
//   - tabulated columns (support small enough for maxTabulated: the ±maxW
//     columns of the pairwise-max and residual-add constructions, and
//     all-zero columns) are answered from a per-column table over their
//     entire key space, filled on first use by walkSupport — the real
//     colNeuron.step walk with drives summed in ascending row order, i.e.
//     the dense kernel restricted to the support. A crossbar whose columns
//     are all tabulated never builds units or drives at all;
//   - walked columns go through the cycle walk below.
//
// For the walked columns, per batch item the kernel
//
//  1. collapses the input rows into drive units — every row with a zero
//     count drops out; when the programmed conductances are exact-sum
//     (integer-valued and bounded, see Program) rows with equal counts
//     share one unit whose conductance rows are pre-summed, because equal
//     counts produce identical Bresenham trains and integer sums are
//     order-independent, so the per-cycle drive is bit-identical either
//     way. With inexact (noisy) conductances every firing row stays its
//     own unit in ascending row order, preserving the dense float
//     accumulation order exactly;
//  2. reads each unit's packed train from the shared uniformTrains table,
//     OR-s them into the item's live-cycle mask, and accumulates unit-major
//     — for each unit ascending, for each cycle t it fires in, add its
//     conductance row into row rank(t) of a zeroed live×2·cols drive
//     matrix. For any fixed (t, column) the adds still arrive in ascending
//     unit order on top of +0.0, exactly the dense kernel's accumulation
//     order per column;
//  3. walks each column independently: live cycles step the
//     membrane/threshold/subtracter statements with the pre-accumulated
//     drive, and the dead cycles between them are skipped wholesale once
//     the column's membranes are below threshold. While a membrane is still
//     at or above η the column steps through the zero-drive cycles one by
//     one, because each such cycle really fires (the "hot drain"); adding a
//     drive of 0.0 to a membrane is bit-exactly a no-op, so skipping cold
//     cycles changes nothing.
//
// Every floating-point operation the dense kernel performs on a value that
// could differ is performed here, per column, in the same order; every
// skipped operation is provably a no-op. That is the sparse/dense
// bit-exactness invariant the property and fuzz suites pin. Nothing is
// keyed on a whole input vector, stage or sample: the tables' hit rate
// depends on the crossbar's structure, not on inputs repeating.
func (c *Crossbar) simulateCountsPacked(dst, src []int, batch int) {
	window, cols := c.window, c.cols
	if c.trainTab == nil {
		c.trainTab = uniformTrains(window)
	}
	if c.rowG == nil && len(c.walkCols) > 0 {
		// The walk adds whole conductance rows, both polarities at once.
		c.rowG = make([]float64, 0, 2*len(c.posG))
		for i := 0; i < c.rows; i++ {
			c.rowG = append(c.rowG, c.posG[i*cols:(i+1)*cols]...)
			c.rowG = append(c.rowG, c.negG[i*cols:(i+1)*cols]...)
		}
	}
	for b := 0; b < batch; b++ {
		counts := src[b*c.rows : (b+1)*c.rows]
		out := dst[b*cols : (b+1)*cols]
		for i := range c.tabCols {
			tc := &c.tabCols[i]
			out[tc.col] = c.tabulated(tc, counts)
		}
		if len(c.walkCols) == 0 {
			continue
		}
		c.buildUnits(counts)
		c.accumulateDrives()
		for _, j := range c.walkCols {
			out[j] = c.runColumnPacked(j, window, cols, c.eta)
		}
	}
}

// tabulated answers one tabulated column for one item: the key is the
// clamped counts on the column's support rows, and a miss runs the real
// walk once and remembers it.
func (c *Crossbar) tabulated(tc *tabCol, counts []int) int {
	base := c.window + 1
	key := 0
	for _, r := range tc.rows[:tc.k] {
		key = key*base + spike.Clamp(counts[r], c.window)
	}
	if tc.table == nil {
		size := 1
		for range tc.k {
			size *= base
		}
		tc.table = make([]int32, size)
	}
	if v := tc.table[key]; v != 0 {
		return int(v - 1)
	}
	out := c.walkSupport(tc, counts)
	tc.table[key] = int32(out + 1)
	return out
}

// walkSupport is the dense kernel restricted to one column's support: every
// cycle of the window sums the conductances of the firing support rows in
// ascending row order on top of +0.0 and steps the column's neuron pair. It
// never skips a cycle, so it is right for any η, ideal or noisy.
func (c *Crossbar) walkSupport(tc *tabCol, counts []int) int {
	lanes := spike.Lanes(c.window)
	n := colNeuron{eta: c.eta}
	for t := 0; t < c.window; t++ {
		var dP, dN float64
		for _, r := range tc.rows[:tc.k] {
			count := spike.Clamp(counts[r], c.window)
			if c.trainTab[count*lanes+t>>6]&(1<<uint(t&63)) != 0 {
				dP += c.posG[r*c.cols+tc.col]
				dN += c.negG[r*c.cols+tc.col]
			}
		}
		n.step(dP, dN)
	}
	return n.out
}

// accumulateDrives turns the current units into the event list and drive
// matrix runColumnPacked reads: evCycles holds the live cycles ascending
// (the union of the units' trains), and row li of drvAll the drives of live
// cycle li — positive at [li·2c, li·2c+c), negative at [li·2c+c, (li+1)·2c).
// Accumulation is unit-major; see simulateCountsPacked for why that keeps
// the dense per-column float order.
func (c *Crossbar) accumulateDrives() {
	window := c.window
	lanes := spike.Lanes(window)
	c.live = grow(c.live, lanes)
	for l := range c.live {
		c.live[l] = 0
	}
	for _, count := range c.unitCount {
		for l, word := range c.trainTab[count*lanes : (count+1)*lanes] {
			c.live[l] |= word
		}
	}
	c.rank = grow(c.rank, window)
	c.evCycles = c.evCycles[:0]
	for l, word := range c.live {
		for ; word != 0; word &= word - 1 {
			t := l<<6 + bits.TrailingZeros64(word)
			c.rank[t] = len(c.evCycles)
			c.evCycles = append(c.evCycles, t)
		}
	}
	c.drvAll = grow(c.drvAll, len(c.evCycles)*2*c.cols)
	for k := range c.drvAll {
		c.drvAll[k] = 0
	}
	for u, count := range c.unitCount {
		g := c.unitG[u]
		for l, word := range c.trainTab[count*lanes : (count+1)*lanes] {
			for ; word != 0; word &= word - 1 {
				li := c.rank[l<<6+bits.TrailingZeros64(word)]
				row := c.drvAll[li*len(g):][:len(g)]
				for j, gv := range g {
					row[j] += gv
				}
			}
		}
	}
}

// colNeuron is one column's ideal neuron pair and subtracter state during
// the packed walk. step is the exact statement sequence of the dense
// kernel's per-column inner loop; step(0, 0) is the zero-drive cycle
// (membranes never go negative, so += 0.0 is bitwise a no-op).
type colNeuron struct {
	memP, memN float64
	debt, out  int
	eta        float64
}

// hot reports whether a zero-drive cycle could still fire this column.
func (n *colNeuron) hot() bool { return n.memP >= n.eta || n.memN >= n.eta }

// step advances one cycle with the given drives.
func (n *colNeuron) step(dP, dN float64) {
	sp := false
	if n.memP += dP; n.memP >= n.eta {
		n.memP -= n.eta
		sp = true
	}
	sn := false
	if n.memN += dN; n.memN >= n.eta {
		n.memN -= n.eta
		sn = true
	}
	if sn {
		n.debt++
	}
	if sp {
		if n.debt > 0 {
			n.debt--
		} else {
			n.out++
		}
	}
}

// runColumnPacked runs one column over the current event list and drive
// matrix and returns its output spike count. Dead cycles are stepped only
// while the column is hot; a live cycle whose drive happens to be zero for
// this column is stepped only when hot, which is the same no-op argument.
func (c *Crossbar) runColumnPacked(j, window, cols int, eta float64) int {
	n := colNeuron{eta: eta}
	prev := -1
	for li, t := range c.evCycles {
		for gap := t - prev - 1; gap > 0 && n.hot(); gap-- {
			n.step(0, 0)
		}
		dP := c.drvAll[li*2*cols+j]
		dN := c.drvAll[li*2*cols+cols+j]
		if dP != 0 || dN != 0 || n.hot() {
			n.step(dP, dN)
		}
		prev = t
	}
	for gap := window - 1 - prev; gap > 0 && n.hot(); gap-- {
		n.step(0, 0)
	}
	return n.out
}

// buildUnits collapses one item's input counts into drive units (see
// simulateCountsPacked). Unit conductance rows (positive then negative
// polarity, 2·cols wide) land in c.unitG, firing counts in c.unitCount.
func (c *Crossbar) buildUnits(counts []int) {
	window, w := c.window, 2*c.cols
	c.unitG = c.unitG[:0]
	c.unitCount = c.unitCount[:0]
	if !c.exactSums {
		// Inexact conductances: one unit per firing row, ascending row
		// order — the dense accumulation order, preserved bit for bit.
		for i, cnt := range counts {
			cnt = spike.Clamp(cnt, window)
			if cnt == 0 {
				continue
			}
			c.unitG = append(c.unitG, c.rowG[i*w:(i+1)*w])
			c.unitCount = append(c.unitCount, cnt)
		}
		return
	}
	// Exact-sum conductances: group rows by firing count. Equal counts
	// fire on identical cycles, and integer-valued conductances sum
	// exactly in any order, so a pre-summed group row drives the column
	// bit-identically to its member rows added one by one.
	c.slotMult = grow(c.slotMult, window+1)
	c.slotRow = grow(c.slotRow, window+1)
	c.slotUnit = grow(c.slotUnit, window+1)
	for k := range c.slotMult {
		c.slotMult[k] = 0
	}
	for i, cnt := range counts {
		cnt = spike.Clamp(cnt, window)
		if cnt == 0 {
			continue
		}
		if c.slotMult[cnt] == 0 {
			c.slotRow[cnt] = i
		}
		c.slotMult[cnt]++
	}
	grouped := 0
	for cnt := 1; cnt <= window; cnt++ {
		if c.slotMult[cnt] > 1 {
			grouped++
		}
	}
	c.groupBuf = grow(c.groupBuf, grouped*w)
	for k := range c.groupBuf {
		c.groupBuf[k] = 0
	}
	gi := 0
	for cnt := 1; cnt <= window; cnt++ {
		mult := c.slotMult[cnt]
		if mult == 0 {
			continue
		}
		c.slotUnit[cnt] = len(c.unitCount)
		if mult == 1 {
			i := c.slotRow[cnt]
			c.unitG = append(c.unitG, c.rowG[i*w:(i+1)*w])
		} else {
			c.unitG = append(c.unitG, c.groupBuf[gi*w:(gi+1)*w])
			gi++
		}
		c.unitCount = append(c.unitCount, cnt)
	}
	for i, cnt := range counts {
		cnt = spike.Clamp(cnt, window)
		if cnt == 0 || c.slotMult[cnt] < 2 {
			continue
		}
		sum := c.unitG[c.slotUnit[cnt]]
		for j, g := range c.rowG[i*w : (i+1)*w] {
			sum[j] += g
		}
	}
}

// classifyProgramming scans the programmed conductances and precomputes
// the packed kernel's structural facts: whether conductance sums are
// exact in any order (every value integer and the worst-case window-long
// column accumulation far below 2^53 — true for ideal programming, where
// conductances are integer level counts; false as soon as programming
// noise produces fractional values), and each column's support — the rows
// where it carries a nonzero conductance in either polarity. Columns whose
// support fits a table (see maxTabulated; all-zero columns have the empty
// support and a one-entry table) become tabCols, the rest walkCols.
func (c *Crossbar) classifyProgramming() {
	exact := true
	colSum := make([]float64, c.cols)
	tabs := make([]tabCol, c.cols)
	for i := 0; i < c.rows; i++ {
		for j := 0; j < c.cols; j++ {
			k := i*c.cols + j
			pg, ng := c.posG[k], c.negG[k]
			if pg != math.Trunc(pg) || ng != math.Trunc(ng) {
				exact = false
			}
			colSum[j] += math.Abs(pg) + math.Abs(ng)
			if pg != 0 || ng != 0 {
				if tc := &tabs[j]; tc.k < maxSupport {
					tc.rows[tc.k] = i
					tc.k++
				} else {
					tc.k = maxSupport + 1
				}
			}
		}
	}
	var maxColSum float64
	for _, s := range colSum {
		if s > maxColSum {
			maxColSum = s
		}
	}
	c.exactSums = exact && float64(c.window)*maxColSum < 1<<52
	// maxK is the largest support whose key space (Γ+1)^k fits a table.
	maxK := 0
	for size := c.window + 1; maxK < maxSupport && size <= maxTabulated; size *= c.window + 1 {
		maxK++
	}
	// Filter tabs in place: tabCols never outruns the read position j.
	c.tabCols, c.walkCols = tabs[:0], make([]int, 0, c.cols)
	for j := range tabs {
		if tabs[j].k <= maxK {
			tabs[j].col = j
			c.tabCols = append(c.tabCols, tabs[j])
		} else {
			c.walkCols = append(c.walkCols, j)
		}
	}
}
