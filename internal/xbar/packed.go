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
	if err := c.checkBatch(len(dst), len(src), batch, 0); err != nil {
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

// probeDensity sums the input spike counts of a micro-batch, each in
// [0, Γ], into the stats counters, beside the capacity they were observed
// over.
func (c *Crossbar) probeDensity(src []uint16, batch int) {
	total := 0
	for _, v := range src {
		total += int(v)
	}
	c.spikeN.Add(uint64(total))
	c.slotN.Add(uint64(batch * c.rows * c.window))
}

// A column is tabulated when its support is at most maxSupport rows — what
// the synthesizer's pairwise-max and residual-add columns have — and its
// key space (Γ+1)^k is at most maxTabulated entries: k ≤ 2 up to Γ = 89
// (90² = 8100 keys), k ≤ 1 up to Γ = 8191. Both are constants, not knobs:
// the key space must stay small enough to enumerate, so that a table's hit
// rate is a property of the crossbar and not of the input stream. A table
// entry is a count plus one, at most Γ+1 ≤ maxTabulated, so it fits a
// uint16.
const (
	maxSupport   = 2
	maxTabulated = 1 << 13
)

// tabCol is one tabulated column: its support rows (the rows with a nonzero
// conductance in either polarity, ascending) and the index of the crossbar
// table that answers it. Columns whose support conductances are
// bit-identical position by position compute the same function of their
// support counts, so they share one table (classifyProgramming).
type tabCol struct {
	col  int
	k    int
	rows [maxSupport]int
	tab  int // index into Crossbar.tables
}

// trainTables memoizes uniformTrains per window. The content is a pure
// function of the key, so sharing it across crossbars, executors and
// goroutines cannot couple them.
var trainTables sync.Map // window → []uint64

// uniformTrains returns the (Γ+1)×Lanes(Γ) table of packed uniform trains
// for the window: words [count·lanes, (count+1)·lanes) hold
// spike.UniformTrain(count, Γ), cycle t at bit t%64 of word t/64.
// UniformTrain depends only on (count, Γ), so the table is built once per
// window for the whole process — not per crossbar and not per item.
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
//     all-zero columns) are answered from a table over their entire key
//     space, one per distinct support signature (every tabulated column of
//     a pairwise-max crossbar shares one), filled on first use by
//     walkSupport — spike.Neuron.Step and spike.Subtracter.Step on drives
//     summed in ascending row order, i.e. the dense kernel restricted to the
//     support. They are answered after the walk, a column at a time over
//     the whole batch (tabulate). A crossbar whose columns are all
//     tabulated never builds lane rows or drives at all;
//   - walked columns go through a cycle walk.
//
// Which walk is decided at entry from what the crossbar is, never by an
// option: ideally programmed conductances under an integer η that no
// column drive exceeds (laneEligible — every crossbar the synthesizer emits,
// until noise, a fault or SetEta says otherwise) step all walked
// columns at once in integer lanes (walkLanes) — unless, in addition, no
// walked column has a negative conductance and every walked cell holds its
// ideal magnitude (negativeFree: the average and global-average pools),
// where the count is the reference kernel's and ReferenceBatch's
// arithmetic answers the whole batch. Anything else takes the float walk
// (walkFloat), which per batch item
//
//  1. drops every row with a clamped count of zero and keeps every firing
//     row, in ascending row order — the dense float accumulation order,
//     preserved exactly;
//  2. reads each firing row's packed train from the shared uniformTrains
//     table, OR-s it into the item's live-cycle mask, and adds the row's
//     float lane row (floatG: walked-column conductances, both polarities)
//     into the drive row of each cycle it fires in. For any fixed
//     (t, column) the adds arrive in ascending row order on top of +0.0,
//     exactly the dense kernel's accumulation order per column;
//  3. walks the columns a block of four at a time: live cycles step the
//     membrane/threshold/subtracter statements with the accumulated drive,
//     and the zero-drive cycles between them are skipped wholesale once
//     every membrane of the block is below threshold. While a membrane is
//     still at or above η the block steps through the zero-drive cycles one
//     by one, because each such cycle really fires (the "hot drain"); a
//     zero-drive step of a column below threshold is bit-exactly a no-op,
//     so skipping such cycles, or stepping them, changes nothing
//     (docs/INVARIANTS.md, "Float lanes", item 3).
//
// Every floating-point operation the dense kernel performs on a value that
// could differ is performed here, per column, in the same order; every
// skipped operation is provably a no-op. That is the kernel ≡ dense-oracle
// bit-exactness invariant the property and fuzz suites pin. Nothing is
// keyed on a whole input vector, stage or sample: the tables' hit rate
// depends on the crossbar's structure, not on inputs repeating.
func (c *Crossbar) simulateCountsPacked(dst, src []uint16, batch int) {
	window, rows, cols := c.window, c.rows, c.cols
	if c.trainTab == nil {
		c.trainTab = uniformTrains(window)
	}
	lanes := len(c.walkCols) > 0 && c.laneEligible()
	switch {
	case len(c.walkCols) == 0:
	case lanes && c.negFree:
		// spiking = ⌊S⁺(Γ)/η⌋ = ReferenceBatch on every walked column
		// (docs/INVARIANTS.md, "Integer lanes", item 6); the tabulated
		// columns' reference answers are overwritten below.
		c.sums = grow(c.sums, batch*cols)
		c.referenceSums(c.sums, src, batch)
		integerEpilogue(dst, c.sums, uint64(c.eta), window)
	case lanes:
		c.packLanes()
		for b := range batch {
			c.walkLanes(dst[b*cols:(b+1)*cols], src[b*rows:(b+1)*rows])
		}
	default:
		c.packFloatLanes()
		for b := range batch {
			c.walkFloat(dst[b*cols:(b+1)*cols], src[b*rows:(b+1)*rows])
		}
	}
	c.tabulate(dst, src, batch)
}

// tabulate answers the tabulated columns for a whole batch, one column at a
// time: the key is the counts on the column's support rows, and a
// miss runs the real walk once and remembers it in the column's (possibly
// shared) table. A table has (Γ+1)^k entries keyed by the support counts,
// most significant row first; 0 means not yet computed, otherwise
// output+1. An empty table (never used, or dropped by SetEta or a draw
// pass) is sized and zeroed in its own buffer on first use. The table and
// the key's fold are resolved once per column: key = m0·c(r0) + m1·c(r1),
// with (m0, m1) = (Γ+1, 1) for two support rows, (1, 0) for one and
// (0, 0) for none, where an absent row reads row 0 and counts nothing.
func (c *Crossbar) tabulate(dst, src []uint16, batch int) {
	if len(c.tabCols) == 0 {
		return
	}
	if len(c.tables) != c.nTabs {
		c.tables = grow(c.tables, c.nTabs)
	}
	window, rows, cols := c.window, c.rows, c.cols
	base := window + 1
	for i := range c.tabCols {
		tc := &c.tabCols[i]
		table := c.tables[tc.tab]
		if len(table) == 0 {
			size := 1
			for range tc.k {
				size *= base
			}
			table = zeroed(table, size)
			c.tables[tc.tab] = table
		}
		var r0, r1, m0, m1 int
		switch tc.k {
		case 1:
			r0, m0 = tc.rows[0], 1
		case 2:
			r0, r1, m0, m1 = tc.rows[0], tc.rows[1], base, 1
		}
		for b := range batch {
			counts := [maxSupport]int{min(int(src[r0]), window), min(int(src[r1]), window)}
			key := m0*counts[0] + m1*counts[1]
			v := table[key]
			if v == 0 {
				v = uint16(c.walkSupport(tc, &counts) + 1)
				table[key] = v
			}
			dst[b*cols+tc.col] = v - 1
			r0, r1 = r0+rows, r1+rows
		}
	}
}

// walkSupport is the dense kernel restricted to one column's support: every
// cycle of the window sums the conductances of the firing support rows in
// ascending row order on top of +0.0 and steps the oracle's own PE parts
// with them — a spike.Neuron per polarity, then the spike.Subtracter. It
// never skips a cycle, so it is right for any η, ideal or noisy. counts
// holds the clamped support counts, most significant row first; each
// row's train and conductances are looked up once, before the cycle loop.
func (c *Crossbar) walkSupport(tc *tabCol, counts *[maxSupport]int) int {
	lanes := spike.Lanes(c.window)
	var trains [maxSupport][]uint64
	var pg, ng [maxSupport]float64
	for p, r := range tc.rows[:tc.k] {
		trains[p] = c.trainTab[counts[p]*lanes:][:lanes]
		pg[p], ng[p] = c.posG[r*c.cols+tc.col], c.negG[r*c.cols+tc.col]
	}
	pos, neg := spike.Neuron{Eta: c.eta}, spike.Neuron{Eta: c.eta}
	var sub spike.Subtracter
	out := 0
	for t := range c.window {
		var dP, dN float64
		for p, train := range trains[:tc.k] {
			if train[t>>6]&(1<<uint(t&63)) != 0 {
				dP += pg[p]
				dN += ng[p]
			}
		}
		sp := pos.Step(dP)
		sn := neg.Step(dN)
		if sub.Step(sp, sn) {
			out++
		}
	}
	return out
}

// floatBlock is the portable float walk's state for one block of four
// walked columns, a lane each: both membranes, the fire-count difference
// F⁺ − F⁻ and the output count.
type floatBlock struct {
	memP, memN [4]float64
	diff, out  [4]int
}

// hot reports whether a zero-drive cycle could still fire some lane.
func (b *floatBlock) hot(eta float64) bool {
	h := false
	for l := range 4 {
		h = h || b.memP[l] >= eta || b.memN[l] >= eta
	}
	return h
}

// step advances every lane one cycle with the given drives, with no
// data-dependent branch: the neurons as the AVX2 body's masks — one that
// does not fire subtracts +0.0, which leaves its membrane unchanged bit for
// bit (docs/INVARIANTS.md, "Float lanes", item 2) — and the subtracter as
// the running maximum of the fire-count difference, as the AVX2 lane walk
// keeps it, which is spike.Subtracter.Step's count (docs/INVARIANTS.md,
// "Integer lanes", item 4).
func (b *floatBlock) step(dP, dN *[4]float64, eta float64) {
	etaBits := math.Float64bits(eta)
	for l := range 4 {
		mp, mn := b.memP[l]+dP[l], b.memN[l]+dN[l]
		sp, sn := b2i(mp >= eta), b2i(mn >= eta)
		b.memP[l] = mp - math.Float64frombits(etaBits&-uint64(sp))
		b.memN[l] = mn - math.Float64frombits(etaBits&-uint64(sn))
		b.diff[l] += sp - sn
		b.out[l] = max(b.out[l], b.diff[l])
	}
}

// zeroDrive is a block's drives in a zero-drive cycle.
var zeroDrive [4]float64

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// A float lane row is one row's walk-column conductances as float64: the
// positive polarity's, then the negative polarity's, each half padded with
// +0.0 to whole 4-column (256-bit) blocks. Entry n of either half holds
// column walkCols[n]; floatHalf is the padded half.
func (c *Crossbar) floatHalf() int { return (len(c.walkCols) + 3) &^ 3 }

// packFloatLanes builds floatG once per draw pass, with the float walk's
// scratch, all in the buffers of the pass before when they are big enough.
// On the noisy path, which redraws a crossbar per call, that is once per
// call. floatG is cleared first: the walked columns may have changed with
// the draw, and a padding lane must hold +0.0, not a conductance of a
// column walked before. Both bodies leave floatDrv and floatLive zero
// across their whole length after every item, so their capacity is zero
// between calls and needs no clear.
func (c *Crossbar) packFloatLanes() {
	if len(c.floatG) != 0 {
		return
	}
	half := c.floatHalf()
	stride := 2 * half
	c.floatG = alignedGrow(c.floatG, c.rows*stride)
	clear(c.floatG)
	for i := 0; i < c.rows; i++ {
		row := c.floatG[i*stride : (i+1)*stride]
		for n, j := range c.walkCols {
			row[n] = c.posG[i*c.cols+j]
			row[half+n] = c.negG[i*c.cols+j]
		}
	}
	c.floatDrv = alignedGrow(c.floatDrv, c.window*stride)
	c.floatLive = grow(c.floatLive, spike.Lanes(c.window))
	c.floatFired = grow(c.floatFired, half)
}

// walkFloat runs one item's float walk (see simulateCountsPacked) over the
// float lane rows: the AVX2 body with laneAVX2, the portable one otherwise.
// Both leave floatDrv and floatLive zero.
func (c *Crossbar) walkFloat(out, counts []uint16) {
	if laneAVX2 {
		c.walkFloatAVX2(out, counts)
	} else {
		c.walkFloatPortable(out, counts)
	}
}

// walkFloatPortable is walkFloat's body in plain Go, with the AVX2 body's
// steps over the same rows: every firing row, in ascending row order, adds
// its lane row into the drive row of each cycle it fires in; then each
// block of four walked columns (floatBlock) steps its live cycles, and the
// zero-drive cycles between them only while some lane is hot; last, the
// drive row of each live cycle and the live words are zeroed for the next
// item. The add takes a block per trip (a lane row is whole blocks): one
// lane per trip ran about a quarter slower on conv18x8 when the linker
// moved the function by 32 bytes (docs/ARCHITECTURE.md, "The float walk on
// AVX2").
func (c *Crossbar) walkFloatPortable(out, counts []uint16) {
	window, half := c.window, c.floatHalf()
	stride, lanes, eta := 2*half, len(c.floatLive), c.eta
	live, drv := c.floatLive, c.floatDrv
	for i, v := range counts {
		cnt := min(int(v), window)
		if cnt == 0 {
			continue
		}
		g := c.floatG[i*stride : (i+1)*stride]
		for l, word := range c.trainTab[cnt*lanes : (cnt+1)*lanes] {
			live[l] |= word
			for ; word != 0; word &= word - 1 {
				row := drv[(l<<6+bits.TrailingZeros64(word))*stride:][:stride]
				for k := 0; k < stride; k += 4 {
					d, v := row[k:k+4:k+4], g[k:k+4:k+4]
					d[0] += v[0]
					d[1] += v[1]
					d[2] += v[2]
					d[3] += v[3]
				}
			}
		}
	}
	for n := 0; n < len(c.walkCols); n += 4 {
		var b floatBlock
		prev := -1
		for l, word := range live {
			for ; word != 0; word &= word - 1 {
				t := l<<6 + bits.TrailingZeros64(word)
				for gap := t - prev - 1; gap > 0 && b.hot(eta); gap-- {
					b.step(&zeroDrive, &zeroDrive, eta)
				}
				b.step((*[4]float64)(drv[t*stride+n:]), (*[4]float64)(drv[t*stride+half+n:]), eta)
				prev = t
			}
		}
		// No zero-drive cycle follows the last live one: every uniform train
		// with a spike fires at cycle Γ−1 (TestUniformTrainFiresLastCycle).
		for l, j := range c.walkCols[n:min(n+4, len(c.walkCols))] {
			out[j] = uint16(b.out[l])
		}
	}
	for l, word := range live {
		live[l] = 0
		for ; word != 0; word &= word - 1 {
			clear(drv[(l<<6+bits.TrailingZeros64(word))*stride:][:stride])
		}
	}
}

// walkFloatAVX2 is walkFloat's AVX2 body (floatWalkAVX2): one assembly call
// per item takes the portable body's steps, four columns per instruction.
// The walk steps two blocks per pass: every live cycle, and the zero-drive
// cycles between them only while some lane of the pass is hot, with
// spike.Neuron.Step written as masks (a not-firing lane subtracts +0.0,
// which is exact). The extra steps this takes over the portable body all
// fall on lanes that are not hot, where a zero-drive step changes nothing;
// docs/INVARIANTS.md ("Float lanes") has the argument.
func (c *Crossbar) walkFloatAVX2(out, counts []uint16) {
	floatWalkAVX2(&c.floatDrv[0], &c.floatG[0], &counts[0], &c.trainTab[0], &c.floatLive[0], &c.floatFired[0],
		c.rows, c.window, c.floatHalf()/4, c.eta)
	for n, j := range c.walkCols {
		out[j] = uint16(c.floatFired[n])
	}
}

// classifyProgramming scans the programmed conductances and precomputes
// the kernel's structural facts. Each column's support is the rows where it
// carries a nonzero conductance in either polarity: columns whose support
// fits a table (see maxTabulated; all-zero columns have the empty support
// and a one-entry table) become tabCols, the rest walkCols. Tabulated
// columns with the same support signature (sameSupport) get the same table
// index; nTabs counts the distinct ones, with no allocation. maxDrive is
// the most one cycle can add to a walked column's membrane (see laneEligible),
// finite only when conductance sums are exact in any order — every value a
// non-negative integer and the worst-case window-long column accumulation
// far below 2^53: true for ideal programming, where conductances are integer
// level counts; false as soon as programming noise produces fractional
// values. Every draw pass runs this — one per call on the SpikingNet noisy
// path, which redraws its executor per call — so it allocates nothing beyond
// its three slices (TestProgramAllocs), and nothing at all when it reruns
// on a crossbar whose slices it already made (TestRedrawAllocs).
func (c *Crossbar) classifyProgramming() {
	exact, nonneg := true, true
	c.colSum = zeroed(c.colSum, 2*c.cols) // column j: positive at 2j, negative at 2j+1
	colSum := c.colSum
	tabs := zeroed(c.tabCols, c.cols)
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
	c.tabCols, c.walkCols = tabs[:0], grow(c.walkCols, c.cols)[:0]
	for j := range tabs {
		if tabs[j].k <= maxK {
			tabs[j].col = j
			c.tabCols = append(c.tabCols, tabs[j])
		} else {
			c.walkCols = append(c.walkCols, j)
		}
	}
	c.nTabs = 0
	for i := range c.tabCols {
		tc := &c.tabCols[i]
		tc.tab = c.nTabs
		for j := range c.tabCols[:i] {
			if c.sameSupport(&c.tabCols[j], tc) {
				tc.tab = c.tabCols[j].tab
				break
			}
		}
		if tc.tab == c.nTabs {
			c.nTabs++
		}
	}
	c.maxDrive = math.Inf(1)
	if exactSums && nonneg {
		c.maxDrive = 0
		for _, j := range c.walkCols {
			c.maxDrive = max(c.maxDrive, colSum[2*j], colSum[2*j+1])
		}
	}
	c.negFree = c.negativeFree()
}

// negativeFree reports whether a lane walk over this crossbar may be
// answered by the reference kernel: there are walked columns, their sums
// are exact (maxDrive is finite), none has a nonzero negative conductance,
// and each of their cells holds exactly packW's ideal magnitudes — the
// reference kernel's operands. Integrality alone is not the test: a noisy
// draw clamped to 0 is an integer too, and so is a conductance an integer
// away from its ideal magnitude. The
// cell-by-cell scan runs only on crossbars that pass the cheap tests, so a
// noisy redraw (fractional sums) costs nothing extra.
func (c *Crossbar) negativeFree() bool {
	if len(c.walkCols) == 0 || math.IsInf(c.maxDrive, 1) {
		return false
	}
	for _, j := range c.walkCols {
		if c.colSum[2*j+1] != 0 {
			return false
		}
	}
	for i := 0; i < c.rows; i++ {
		for _, j := range c.walkCols {
			k := i*c.cols + j
			p, n := c.packW[k]>>polarityShift, c.packW[k]&lowHalf
			if n != 0 || c.negG[k] != 0 || c.posG[k] != float64(p) {
				return false
			}
		}
	}
	return true
}

// sameSupport reports whether two tabulated columns have the same support
// signature: the same support size and, position by position, bit-identical
// positive and negative conductances. Such columns compute the same
// function of their support counts (docs/INVARIANTS.md, "Column
// tabulation"), so one table answers both. Bits, not ==, are compared: ==
// would equate +0.0 with −0.0 and never a NaN with itself.
func (c *Crossbar) sameSupport(a, b *tabCol) bool {
	if a.k != b.k {
		return false
	}
	for p := range a.k {
		ka, kb := a.rows[p]*c.cols+a.col, b.rows[p]*c.cols+b.col
		if math.Float64bits(c.posG[ka]) != math.Float64bits(c.posG[kb]) ||
			math.Float64bits(c.negG[ka]) != math.Float64bits(c.negG[kb]) {
			return false
		}
	}
	return true
}
