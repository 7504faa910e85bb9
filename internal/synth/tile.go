package synth

import (
	"fmt"
	"math"

	"fpsa/internal/coreop"
)

// tileMatrix splits a rows×cols logical weight matrix into crossbar-sized
// groups for shape-only synthesis and returns their IDs, row tiles within
// column tiles.
//
// A row-split matrix follows the paper's accounting: the partial counts of
// its row tiles are summed digitally by the consumer-side SMB's embedded
// counters (§4.3's counters accumulate trains for free), and the per-tile
// ReLU placement is absorbed by the NN compiler's fine-tuning [19, 20] —
// so splitting costs no extra PEs beyond the weight-capacity bound.
// Functional synthesis is exact instead (see exactMatrix).
func (s *synthesizer) tileMatrix(name, layer string, rows, cols, reuse int, deps []int) ([]int, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tileMatrix %q: empty matrix %dx%d", name, rows, cols)
	}
	rowTiles := (rows + s.maxRows - 1) / s.maxRows
	colTiles := (cols + s.maxCols - 1) / s.maxCols
	var ids []int
	for ct := 0; ct < colTiles; ct++ {
		c0, c1 := ct*s.maxCols, min((ct+1)*s.maxCols, cols)
		for rt := 0; rt < rowTiles; rt++ {
			r0, r1 := rt*s.maxRows, min((rt+1)*s.maxRows, rows)
			grp := s.out.AddGroup(newGroup(layer, tileName(name, rt, ct, rowTiles, colTiles),
				coreop.KindCompute, r1-r0, c1-c0, reuse, deps))
			grp.UsefulWeights = int64(r1-r0) * int64(c1-c0)
			ids = append(ids, grp.ID)
		}
	}
	return ids, nil
}

// tileName names row tile rt of column tile ct: the matrix's own name when
// it is one tile, name.c<ct> when only its columns split, and
// name.t<rt>.<ct> when its rows do.
func tileName(name string, rt, ct, rowTiles, colTiles int) string {
	switch {
	case rowTiles > 1:
		return fmt.Sprintf("%s.t%d.%d", name, rt, ct)
	case colTiles > 1:
		return fmt.Sprintf("%s.c%d", name, ct)
	}
	return name
}

// exactMatrix is a trained weight matrix lowered to crossbar groups that
// every input vector (an FC pass or one conv position) invokes, so one
// programmed PE per group serves them all.
//
// Unlike tileMatrix's paper accounting, a row-split matrix is numerically
// exact on PE semantics: its row tiles emit positive/negative partial-sum
// pairs (2× column footprint) and reduction core-ops compute
// ReLU(Σ(p⁺−p⁻)), which reproduces the true activation bit for bit in
// count space. Each column tile is sized so whole reduction groups cover
// it, keeping tile→reduction routing self-contained.
type exactMatrix struct {
	s          *synthesizer
	rows, cols int
	rowTiles   int
	colCap     int     // outputs per column tile
	pack       int     // outputs per reduction group (split case)
	tiles      [][]int // [ct][rt] group IDs
	reds       [][]int // [ct][ri] reduction group IDs; nil when unsplit
}

// buildExactMatrix creates the groups of a rows×cols float matrix with the
// given reuse degree. It rejects weights that are not exactly rows rows of
// cols finite values: they are caller-supplied.
func (s *synthesizer) buildExactMatrix(name, layer string, rows, cols, reuse int, deps []int, weights [][]float64) (*exactMatrix, error) {
	if len(weights) != rows {
		return nil, fmt.Errorf("matrix %q: %d weight rows, want %d", name, len(weights), rows)
	}
	for r, row := range weights {
		if len(row) != cols {
			return nil, fmt.Errorf("matrix %q: weight row %d has %d values, want %d", name, r, len(row), cols)
		}
		for c, w := range row {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("matrix %q: weight (%d,%d) is %v", name, r, c, w)
			}
		}
	}
	m := &exactMatrix{s: s, rows: rows, cols: cols, colCap: s.maxCols}
	m.rowTiles = (rows + s.maxRows - 1) / s.maxRows
	split := m.rowTiles > 1
	redRowsPerOut := 2 * m.rowTiles
	if split {
		m.pack = s.maxRows / redRowsPerOut
		if m.pack == 0 {
			return nil, fmt.Errorf("matrix %q: %d row tiles need hierarchical reduction (unsupported)", name, m.rowTiles)
		}
		m.colCap = s.maxCols / 2 // ± pairs halve the per-tile output width
	}
	q := s.quantize(weights)
	eta := safeEta(q)
	maxW := s.peMaxWeight()
	colTiles := (cols + m.colCap - 1) / m.colCap
	for ct := 0; ct < colTiles; ct++ {
		c0, c1 := ct*m.colCap, min((ct+1)*m.colCap, cols)
		width := c1 - c0
		tileCols := width
		if split {
			tileCols = 2 * width
		}
		tileIDs := make([]int, m.rowTiles)
		for rt := range tileIDs {
			r0, r1 := rt*s.maxRows, min((rt+1)*s.maxRows, rows)
			grp := s.out.AddGroup(newGroup(layer, tileName(name, rt, ct, m.rowTiles, colTiles),
				coreop.KindCompute, r1-r0, tileCols, reuse, deps))
			grp.UsefulWeights = int64(r1-r0) * int64(tileCols)
			w := make([][]int, r1-r0)
			for r := r0; r < r1; r++ {
				if !split {
					w[r-r0] = append([]int(nil), q[r][c0:c1]...)
					continue
				}
				row := make([]int, tileCols)
				for k := c0; k < c1; k++ {
					row[2*(k-c0)] = q[r][k]
					row[2*(k-c0)+1] = -q[r][k]
				}
				w[r-r0] = row
			}
			grp.Weights = w
			grp.Eta = eta
			tileIDs[rt] = grp.ID
		}
		m.tiles = append(m.tiles, tileIDs)
		if !split {
			continue
		}
		var redIDs []int
		for o0, ri := 0, 0; o0 < width; o0, ri = o0+m.pack, ri+1 {
			redW := min(m.pack, width-o0)
			red := s.out.AddGroup(newGroup(layer, fmt.Sprintf("%s.red%d.%d", name, ct, ri),
				coreop.KindReduce, redRowsPerOut*redW, redW, reuse, tileIDs))
			red.UsefulWeights = int64(redRowsPerOut) * int64(redW)
			w := make([][]int, redRowsPerOut*redW)
			for i := range w {
				w[i] = make([]int, redW)
			}
			for k := 0; k < redW; k++ {
				for t := 0; t < m.rowTiles; t++ {
					w[k*redRowsPerOut+2*t][k] = maxW
					w[k*redRowsPerOut+2*t+1][k] = -maxW
				}
			}
			red.Weights = w
			red.Eta = safeEta(w)
			redIDs = append(redIDs, red.ID)
		}
		m.reds = append(m.reds, redIDs)
	}
	return m, nil
}

// invoke records the execution stages for one input vector of rows refs
// and returns the refs of the matrix's cols outputs.
func (m *exactMatrix) invoke(inRefs []ExecRef) []ExecRef {
	s := m.s
	out := make([]ExecRef, 0, m.cols)
	tileStages := make([]int, m.rowTiles)
	for ct, tileIDs := range m.tiles {
		for rt, gid := range tileIDs {
			r0, r1 := rt*s.maxRows, min((rt+1)*s.maxRows, m.rows)
			tileStages[rt] = s.recordStage(gid, inRefs[r0:r1:r1])
		}
		width := min(m.colCap, m.cols-ct*m.colCap)
		if m.reds == nil {
			out = appendCols(out, tileStages[0], width)
			continue
		}
		for ri, gid := range m.reds[ct] {
			o0 := ri * m.pack
			redW := min(m.pack, width-o0)
			refs := make([]ExecRef, 0, 2*m.rowTiles*redW)
			for k := o0; k < o0+redW; k++ {
				for _, st := range tileStages {
					refs = append(refs, ExecRef{Stage: st, Col: 2 * k}, ExecRef{Stage: st, Col: 2*k + 1})
				}
			}
			out = appendCols(out, s.recordStage(gid, refs), redW)
		}
	}
	return out
}

// appendCols appends the refs of a stage's first n output columns.
func appendCols(refs []ExecRef, stage, n int) []ExecRef {
	for k := 0; k < n; k++ {
		refs = append(refs, ExecRef{Stage: stage, Col: k})
	}
	return refs
}

// quantize maps float weights to the representable integer grid with one
// scale for the whole layer.
func (s *synthesizer) quantize(weights [][]float64) [][]int {
	maxW := 0.0
	for _, row := range weights {
		for _, w := range row {
			if a := math.Abs(w); a > maxW {
				maxW = a
			}
		}
	}
	limit := s.peMaxWeight()
	scale := 0.0
	if maxW > 0 {
		scale = float64(limit) / maxW
	}
	q := make([][]int, len(weights))
	for i, row := range weights {
		q[i] = make([]int, len(row))
		for j, w := range row {
			q[i][j] = int(math.Round(w * scale))
		}
	}
	return q
}

// peMaxWeight returns the representable magnitude of the evaluated add
// method (CellsPerWeight 4-bit cells per polarity).
func (s *synthesizer) peMaxWeight() int {
	return s.opts.Params.CellsPerWeight * 15
}

// safeEta returns the saturation-safe neuron threshold for signed integer
// matrices: the largest single-polarity column drive sum across all tiles.
func safeEta(tiles ...[][]int) float64 {
	worst := 0.0
	for _, m := range tiles {
		if len(m) == 0 {
			continue
		}
		for j := range m[0] {
			var pos, neg float64
			for i := range m {
				w := float64(m[i][j])
				if w >= 0 {
					pos += w
				} else {
					neg += -w
				}
			}
			if pos > worst {
				worst = pos
			}
			if neg > worst {
				worst = neg
			}
		}
	}
	if worst < 1 {
		worst = 1
	}
	return worst
}

// newGroup builds a group with the common fields filled in.
func newGroup(layer, name string, kind coreop.Kind, rows, cols, reuse int, deps []int) *coreop.Group {
	return &coreop.Group{
		Layer: layer,
		Name:  name,
		Kind:  kind,
		Rows:  rows,
		Cols:  cols,
		Reuse: reuse,
		Deps:  append([]int(nil), deps...),
	}
}
