package xbar

import (
	"math"
	"math/bits"
	"sync"

	"fpsa/internal/spike"
)

// KernelStats counts spiking-kernel calls and the observed input spike
// density. Counters accumulate across a Crossbar's lifetime and are safe to
// read while other goroutines execute (serve.Engine reads them live);
// executors sum them across their crossbars.
type KernelStats struct {
	// SparseBatches counts SimulateCountsBatch calls — every spiking-kernel
	// call a deployment makes. DenseBatches counts SimulateCountsBatchDense
	// calls: oracle calls, 0 in every deployment. (The field names are
	// frozen: bench/ compiles against them.)
	SparseBatches uint64
	DenseBatches  uint64
	// Spikes and SpikeSlots accumulate the observed input spike counts
	// and the capacity (batch·rows·Γ) they were observed over; their
	// ratio is the input density the kernel saw.
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

// KernelStats returns the crossbar's accumulated kernel counters.
func (c *Crossbar) KernelStats() KernelStats {
	return KernelStats{
		SparseBatches: c.sparseN.Load(),
		DenseBatches:  c.denseN.Load(),
		Spikes:        c.spikeN.Load(),
		SpikeSlots:    c.slotN.Load(),
	}
}

// SimulateCountsBatchDense runs the paper's PE item by item instead of the
// kernel: each input count becomes a spike.UniformTrain, SimulateTrains
// drives ideal spike.Neuron pairs and subtracters with them, and each
// column's output train is counted. It is the oracle the property, fuzz and
// benchmark suites hold SimulateCountsBatch to; nothing that serves calls
// it.
func (c *Crossbar) SimulateCountsBatchDense(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.denseN.Add(1)
	ideal := func(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} }
	trains := make([]spike.Train, c.rows)
	for b := 0; b < batch; b++ {
		for i, count := range src[b*c.rows : (b+1)*c.rows] {
			trains[i] = spike.UniformTrain(count, c.window)
		}
		outs, err := c.SimulateTrains(trains, ideal)
		if err != nil {
			return err
		}
		for j, tr := range outs {
			dst[b*c.cols+j] = tr.Count()
		}
	}
	return nil
}

// probeDensity sums the clamped input spike counts of a micro-batch into
// the stats counters, beside the capacity they were observed over.
func (c *Crossbar) probeDensity(src []int, batch int) {
	total := 0
	for _, v := range src {
		total += spike.Clamp(v, c.window)
	}
	c.spikeN.Add(uint64(total))
	c.slotN.Add(uint64(batch * c.rows * c.window))
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
// spike.UniformTrain(count, Γ), cycle t at bit t%64 of word t/64.
// UniformTrain depends only on (count, Γ), so the table is built once per
// window for the whole process — not per crossbar (noisy executors
// re-program on every call) and not per item.
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
//   - walked columns go through a cycle walk.
//
// Which walk is decided at entry from what the crossbar is, never by an
// option: ideally programmed conductances under an integer η that no
// column drive exceeds (laneEligible — every crossbar the synthesizer emits,
// until noise, drift, a fault or SetEta says otherwise) step all walked
// columns at once in integer lanes (walkLanes). Anything else takes the
// float walk. Its portable body, below, per batch item
//
//  1. collapses the input rows into drive units: every row with a zero
//     count drops out, and every firing row is one unit, in ascending row
//     order — the dense float accumulation order, preserved exactly;
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
// On an amd64 CPU with AVX2 (laneAVX2) the float walk runs walkFloatAVX2
// instead: the same units, sums and steps, four columns per instruction.
//
// Every floating-point operation the dense kernel performs on a value that
// could differ is performed here, per column, in the same order; every
// skipped operation is provably a no-op. That is the kernel ≡ dense-oracle
// bit-exactness invariant the property and fuzz suites pin. Nothing is
// keyed on a whole input vector, stage or sample: the tables' hit rate
// depends on the crossbar's structure, not on inputs repeating.
func (c *Crossbar) simulateCountsPacked(dst, src []int, batch int) {
	window, cols := c.window, c.cols
	if c.trainTab == nil {
		c.trainTab = uniformTrains(window)
	}
	lanes := len(c.walkCols) > 0 && c.laneEligible()
	switch {
	case len(c.walkCols) == 0:
	case lanes:
		c.packLanes()
	case laneAVX2:
		c.packFloatLanes()
	case c.rowG == nil:
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
		switch {
		case len(c.walkCols) == 0:
		case lanes:
			c.walkLanes(out, counts)
		case laneAVX2:
			c.walkFloatAVX2(out, counts)
		default:
			c.buildUnits(counts)
			c.accumulateDrives()
			for _, j := range c.walkCols {
				out[j] = c.runColumnPacked(j, window, cols, c.eta)
			}
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

// A float lane row is one row's walk-column conductances as float64: the
// positive polarity's, then the negative polarity's, each half padded with
// +0.0 to whole 4-column (256-bit) blocks. Entry n of either half holds
// column walkCols[n]; floatHalf is the padded half.
func (c *Crossbar) floatHalf() int { return (len(c.walkCols) + 3) &^ 3 }

// packFloatLanes builds floatG once per crossbar, with walkFloatAVX2's
// scratch. On the noisy path, which programs a crossbar per call, that is
// once per call, so it replaces rowG rather than adding to it.
func (c *Crossbar) packFloatLanes() {
	if c.floatG != nil {
		return
	}
	half := c.floatHalf()
	stride := 2 * half
	c.floatG = alignedWords[float64](c.rows * stride)
	for i := 0; i < c.rows; i++ {
		row := c.floatG[i*stride : (i+1)*stride]
		for n, j := range c.walkCols {
			row[n] = c.posG[i*c.cols+j]
			row[half+n] = c.negG[i*c.cols+j]
		}
	}
	c.floatDrv = alignedWords[float64](c.window * stride)
	c.floatLive = make([]uint64, spike.Lanes(c.window))
	c.floatFired = make([]int64, half)
}

// walkFloatAVX2 is the float walk's AVX2 body (floatWalkAVX2): one assembly
// call per item runs the portable body's steps on float lane rows, four
// columns per instruction. Every firing row, in ascending row order, adds
// its lane row into the drive row of each cycle it fires in, on top of
// +0.0 — the dense kernel's per-column order; nothing is subtracted. The
// walk then steps two blocks per pass: every live cycle, and the zero-drive
// cycles between them only while some lane of the pass is hot, with
// colNeuron.step written as masks (a not-firing lane subtracts +0.0, which
// is exact). The extra steps this takes over the portable body all fall on
// lanes that are not hot, where a zero-drive step changes nothing;
// docs/INVARIANTS.md ("Float lanes") has the argument.
func (c *Crossbar) walkFloatAVX2(out, counts []int) {
	floatWalkAVX2(&c.floatDrv[0], &c.floatG[0], &counts[0], &c.trainTab[0], &c.floatLive[0], &c.floatFired[0],
		c.rows, c.window, c.floatHalf()/4, c.eta)
	for n, j := range c.walkCols {
		out[j] = int(c.floatFired[n])
	}
}

// buildUnits collapses one item's input counts into drive units (see
// simulateCountsPacked): one unit per firing row, in ascending row order —
// the dense accumulation order, preserved bit for bit whether or not the
// conductances would sum exactly in another. Unit conductance rows (positive
// then negative polarity, 2·cols wide) land in c.unitG, firing counts in
// c.unitCount.
func (c *Crossbar) buildUnits(counts []int) {
	window, w := c.window, 2*c.cols
	c.unitG = c.unitG[:0]
	c.unitCount = c.unitCount[:0]
	for i, cnt := range counts {
		cnt = spike.Clamp(cnt, window)
		if cnt == 0 {
			continue
		}
		c.unitG = append(c.unitG, c.rowG[i*w:(i+1)*w])
		c.unitCount = append(c.unitCount, cnt)
	}
}

// classifyProgramming scans the programmed conductances and precomputes
// the kernel's structural facts. Each column's support is the rows where it
// carries a nonzero conductance in either polarity: columns whose support
// fits a table (see maxTabulated; all-zero columns have the empty support
// and a one-entry table) become tabCols, the rest walkCols. maxDrive is the
// most one cycle can add to a walked column's membrane (see laneEligible),
// finite only when conductance sums are exact in any order — every value a
// non-negative integer and the worst-case window-long column accumulation
// far below 2^53: true for ideal programming, where conductances are integer
// level counts; false as soon as programming noise produces fractional
// values. Program runs this on every programming pass — one per call on the
// SpikingNet noisy path, which builds an executor per call — so it allocates
// nothing beyond its three slices (TestProgramAllocs).
func (c *Crossbar) classifyProgramming() {
	exact, nonneg := true, true
	colSum := make([]float64, 2*c.cols) // column j: positive at 2j, negative at 2j+1
	tabs := make([]tabCol, c.cols)
	for i := 0; i < c.rows; i++ {
		for j := 0; j < c.cols; j++ {
			k := i*c.cols + j
			pg, ng := c.posG[k], c.negG[k]
			if pg != math.Trunc(pg) || ng != math.Trunc(ng) {
				exact = false
			}
			if pg < 0 || ng < 0 {
				nonneg = false
			}
			colSum[2*j] += math.Abs(pg)
			colSum[2*j+1] += math.Abs(ng)
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
	for j := 0; j < c.cols; j++ {
		maxColSum = max(maxColSum, colSum[2*j]+colSum[2*j+1])
	}
	exactSums := exact && float64(c.window)*maxColSum < 1<<52
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
	c.maxDrive = math.Inf(1)
	if exactSums && nonneg {
		c.maxDrive = 0
		for _, j := range c.walkCols {
			c.maxDrive = max(c.maxDrive, colSum[2*j], colSum[2*j+1])
		}
	}
}
