// Fault modeling: deterministic, seedable stuck-cell maps. The paper's
// evaluation models programming noise only; this file adds the stuck
// ReRAM cells the compiler steers around (spare-row/column remapping in
// internal/mapper) and the executor applies at xbar.Program time, so every
// execution mode sees the same faulted conductances.
//
// Everything here is a pure deterministic function of (seed, unit):
// FaultModel.MapForUnit builds each crossbar's FaultMap from its own
// splitmix-derived rand.Source, so two workers — or two chips of a
// pipelined deployment — programming the same unit always see identical
// faults, unlike programming variation, which is per-replica by design.
// Being pure, the projected masks are derived once per model and shared
// (FaultModel.MaskForUnit): re-programming a crossbar pays for its
// variation draws, never for re-deriving its faults.
package device

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// FaultKind classifies a stuck logical weight cell.
type FaultKind uint8

// Fault kinds. A "cell" here is one logical weight position — the
// differential pos/neg device pair programmed together — so a stuck-low
// cell reads as weight 0 and a stuck-high cell as +MaxWeight, exactly as
// if the weight matrix itself had been masked before programming.
const (
	FaultStuckLow FaultKind = iota + 1
	FaultStuckHigh
)

// String renders the kind as one letter: "L" stuck-low, "H" stuck-high.
func (k FaultKind) String() string {
	switch k {
	case FaultStuckLow:
		return "L"
	case FaultStuckHigh:
		return "H"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FaultCell is one stuck logical cell at a physical crossbar position.
type FaultCell struct {
	Row, Col int
	Kind     FaultKind
}

// FaultModel is a whole deployment's fault scenario: the stuck-cell rate
// and seed, and whether the mapper remaps logical regions around
// known-bad cells.
//
// A model is immutable after first use: MaskForUnit remembers every mask
// it derives, so changing a field afterwards would leave stale masks
// behind. Build a new model instead. Because of the memo a model is
// handled by pointer only, never copied.
type FaultModel struct {
	// Rate is the per-cell stuck probability in [0, 1].
	Rate float64
	// Seed drives fault-map generation; every unit derives its own
	// stream from (Seed, unit), so maps are reproducible and
	// worker-count independent.
	Seed int64
	// Remap steers logical regions around known-bad cells using the
	// crossbar's spare rows and columns (see FaultMap.Remap).
	Remap bool

	// masks memoises MaskForUnit. A mask is a pure function of the fields
	// above and the key, so the memo can never change a result and needs
	// no eviction: it holds one mask per weight group the model has
	// programmed.
	mu    sync.Mutex
	masks map[maskKey]*FaultMask
}

// maskKey is everything besides the model's own fields that a unit's
// projected mask depends on.
type maskKey struct {
	unit               int
	physRows, physCols int
	rows, cols         int
}

// Active reports whether the model sticks any cell at all: an inactive
// model is structurally a no-op and executors skip fault plumbing
// entirely, which is what pins zero-rate bit-exactness.
func (m *FaultModel) Active() bool {
	return m != nil && m.Rate > 0
}

// stuckHighShare is the share of stuck cells that are stuck-high; the rest
// are stuck-low.
const stuckHighShare = 0.5

// mixSeed derives one unit's rand seed from the model seed — a splitmix64
// finalizer, so adjacent units land on uncorrelated streams.
func mixSeed(seed int64, unit int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(unit+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // non-negative, full 63-bit entropy
}

// MapForUnit generates the deterministic fault map of one physical
// crossbar: unit is a stable global identifier (the weight-group ID), and
// rows×cols the physical crossbar geometry (spares included — remapping
// needs them). The same (model, unit, geometry) always yields the same
// map, regardless of which worker or chip asks. Every call redraws the
// whole map (two draws per stuck cell, one per healthy one); code that
// programs crossbars wants MaskForUnit, which derives a unit once. The map
// does not depend on layer: the argument stays only so that callers
// written against this signature keep compiling.
func (m *FaultModel) MapForUnit(layer string, unit, rows, cols int) FaultMap {
	fm := FaultMap{Rows: rows, Cols: cols}
	if !m.Active() {
		return fm
	}
	rate := min(m.Rate, 1)
	rng := rand.New(rand.NewSource(mixSeed(m.Seed, unit)))
	// Row-major generation keeps Cells in canonical order by construction.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() >= rate {
				continue
			}
			kind := FaultStuckLow
			if rng.Float64() < stuckHighShare {
				kind = FaultStuckHigh
			}
			fm.Cells = append(fm.Cells, FaultCell{Row: r, Col: c, Kind: kind})
		}
	}
	return fm
}

// deriveMask is the one derivation the mapper's residual counts and the
// executors' programmed faults both come from: the unit's map at physical
// geometry physRows×physCols, projected onto the rows×cols logical region
// under the model's remap policy.
func (m *FaultModel) deriveMask(unit, physRows, physCols, rows, cols int) FaultMask {
	return m.MapForUnit("", unit, physRows, physCols).MaskFor(rows, cols, m.Remap)
}

// MaskForUnit returns the mask xbar.Program applies to one weight group:
// derived the first time the group is asked for and the same shared,
// read-only mask ever after, so a path that programs a new executor on
// every call derives each group's faults once per model rather than once
// per call. A nil or inactive model returns nil,
// which programs bit-identically to no fault model. Safe for concurrent
// use.
func (m *FaultModel) MaskForUnit(unit, physRows, physCols, rows, cols int) *FaultMask {
	if !m.Active() {
		return nil
	}
	key := maskKey{unit, physRows, physCols, rows, cols}
	// Derived under the lock: workers starting together ask for the same
	// groups, and the first derives each while the rest wait for it.
	m.mu.Lock()
	defer m.mu.Unlock()
	mask := m.masks[key]
	if mask == nil {
		derived := m.deriveMask(unit, physRows, physCols, rows, cols)
		mask = &derived
		if m.masks == nil {
			m.masks = make(map[maskKey]*FaultMask)
		}
		m.masks[key] = mask
	}
	return mask
}

// ResidualForUnit is MaskForUnit(...).Faulted — the stuck cells left
// inside the logical region after any remapping — without remembering the
// mask: place-and-route needs each group's count once, and a compile-only
// flow over a large model must not keep a byte per weight alive for it.
func (m *FaultModel) ResidualForUnit(unit, physRows, physCols, rows, cols int) int {
	if !m.Active() {
		return 0
	}
	return m.deriveMask(unit, physRows, physCols, rows, cols).Faulted
}

// FaultMap is one physical crossbar's fault state: its stuck cells in
// canonical row-major order.
type FaultMap struct {
	// Rows and Cols are the physical crossbar geometry the map covers.
	Rows, Cols int
	// Cells lists the stuck cells in strictly ascending row-major order,
	// the order MapForUnit draws them in and Validate checks.
	Cells []FaultCell
}

// Validate checks geometry, cell ranges and canonical ordering.
func (m FaultMap) Validate() error {
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("device: fault map geometry %dx%d", m.Rows, m.Cols)
	}
	prev := -1
	for i, c := range m.Cells {
		if c.Row < 0 || c.Row >= m.Rows || c.Col < 0 || c.Col >= m.Cols {
			return fmt.Errorf("device: fault cell %d at (%d,%d) outside %dx%d", i, c.Row, c.Col, m.Rows, m.Cols)
		}
		if c.Kind != FaultStuckLow && c.Kind != FaultStuckHigh {
			return fmt.Errorf("device: fault cell %d has unknown kind %d", i, c.Kind)
		}
		key := c.Row*m.Cols + c.Col
		if key <= prev {
			return fmt.Errorf("device: fault cell %d at (%d,%d) breaks canonical row-major order", i, c.Row, c.Col)
		}
		prev = key
	}
	return nil
}

// Remap selects the rows least-faulted physical rows and, within them, the
// cols least-faulted physical columns — the spare-row/column steering the
// compiler applies for known-bad cells. Selection is greedy with
// ascending-index tie-breaks and the returned index slices are ascending,
// so the result is a deterministic function of the map alone. residual is
// the number of stuck cells remaining inside the selected region.
func (m FaultMap) Remap(rows, cols int) (rowIdx, colIdx []int, residual int) {
	if rows > m.Rows {
		rows = m.Rows
	}
	if cols > m.Cols {
		cols = m.Cols
	}
	rowFaults := make([]int, m.Rows)
	for _, c := range m.Cells {
		rowFaults[c.Row]++
	}
	rowIdx = pickLeast(rowFaults, rows)
	chosen := make([]bool, m.Rows)
	for _, r := range rowIdx {
		chosen[r] = true
	}
	colFaults := make([]int, m.Cols)
	for _, c := range m.Cells {
		if chosen[c.Row] {
			colFaults[c.Col]++
		}
	}
	colIdx = pickLeast(colFaults, cols)
	chosenCol := make([]bool, m.Cols)
	for _, c := range colIdx {
		chosenCol[c] = true
	}
	for _, c := range m.Cells {
		if chosen[c.Row] && chosenCol[c.Col] {
			residual++
		}
	}
	return rowIdx, colIdx, residual
}

// pickLeast returns the indices of the n smallest counts, ties broken by
// ascending index, result ascending.
func pickLeast(counts []int, n int) []int {
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] < counts[idx[b]] })
	sel := append([]int(nil), idx[:n]...)
	sort.Ints(sel)
	return sel
}

// MaskFor projects the map onto a rows×cols logical region and returns
// the mask xbar.Program consumes. With remap false the region sits at the
// crossbar's origin (logical (i,j) is physical (i,j)); with remap true
// the Remap spare-row/column assignment steers it around stuck cells.
func (m FaultMap) MaskFor(rows, cols int, remap bool) FaultMask {
	mask := FaultMask{Rows: rows, Cols: cols}
	if len(m.Cells) == 0 {
		return mask
	}
	var rowOf, colOf []int // physical index → logical index, or −1
	if remap {
		rowIdx, colIdx, _ := m.Remap(rows, cols)
		rowOf = inverseIndex(rowIdx, m.Rows)
		colOf = inverseIndex(colIdx, m.Cols)
	}
	for _, c := range m.Cells {
		i, j := c.Row, c.Col
		if remap {
			i, j = rowOf[c.Row], colOf[c.Col]
		}
		if i < 0 || i >= rows || j < 0 || j >= cols {
			continue
		}
		if mask.stuck == nil {
			mask.stuck = make([]FaultKind, rows*cols)
		}
		mask.stuck[i*cols+j] = c.Kind
		mask.Faulted++
	}
	return mask
}

// inverseIndex inverts an ascending physical-index selection into a
// physical → logical lookup (−1 = unselected).
func inverseIndex(sel []int, n int) []int {
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for logical, physical := range sel {
		inv[physical] = logical
	}
	return inv
}

// FaultMask is a fault map projected onto one logical weight region —
// what xbar.Program actually applies. The zero value masks nothing.
type FaultMask struct {
	Rows, Cols int
	// Faulted counts the stuck logical cells inside the region (after
	// any remapping) — the residual the serving stats surface.
	Faulted int

	stuck []FaultKind // row-major rows×cols; 0 = healthy
}

// Active reports whether programming under this mask can differ from
// unfaulted programming at all: whether it sticks any cell.
func (m *FaultMask) Active() bool {
	return m != nil && m.Faulted > 0
}

// Stuck returns the fault kind at logical cell (i, j), or 0 when healthy.
func (m *FaultMask) Stuck(i, j int) FaultKind {
	if m == nil || m.stuck == nil {
		return 0
	}
	return m.stuck[i*m.Cols+j]
}
