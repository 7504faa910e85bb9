package synth

import (
	"fmt"
	"math"

	"fpsa/internal/coreop"
)

// tileMatrix splits a rows×cols logical weight matrix into crossbar-sized
// groups and returns the group IDs that carry the layer's outputs, plus
// (for functional synthesis) the execution refs of each logical output.
//
// When the matrix fits the crossbar's rows, tiles hold signed weights
// directly and are the outputs. When row-split, each tile emits
// positive/negative partial-sum pairs (footprint cost: 2× columns) and a
// reduction group per column chunk recombines them: ReLU(Σ(p⁺ − p⁻))
// equals the true ReLU activation. The column chunk is sized so one
// reduction group covers it exactly, keeping tile→reduction routing
// self-contained.
func (s *synthesizer) tileMatrix(name, layer string, rows, cols, reuse int, deps []int, weights [][]float64, inRefs []ExecRef) ([]int, []ExecRef, error) {
	if rows <= 0 || cols <= 0 {
		return nil, nil, fmt.Errorf("tileMatrix %q: empty matrix %dx%d", name, rows, cols)
	}
	if weights != nil && inRefs == nil {
		return nil, nil, fmt.Errorf("tileMatrix %q: weights supplied but producer refs unavailable", name)
	}
	rowTiles := (rows + s.maxRows - 1) / s.maxRows
	if rowTiles == 1 {
		return s.tileUnsplit(name, layer, rows, cols, reuse, deps, weights, inRefs)
	}
	return s.tileRowSplit(name, layer, rows, cols, reuse, deps, weights, inRefs, rowTiles)
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

// tileUnsplit handles matrices that fit the crossbar rows.
func (s *synthesizer) tileUnsplit(name, layer string, rows, cols, reuse int, deps []int, weights [][]float64, inRefs []ExecRef) ([]int, []ExecRef, error) {
	var q [][]int
	var eta float64
	if weights != nil {
		q = s.quantize(weights)
		eta = safeEta(q)
	}
	var ids []int
	var outRefs []ExecRef
	colTiles := (cols + s.maxCols - 1) / s.maxCols
	for ct := 0; ct < colTiles; ct++ {
		c0 := ct * s.maxCols
		c1 := min(c0+s.maxCols, cols)
		tn := name
		if colTiles > 1 {
			tn = fmt.Sprintf("%s.c%d", name, ct)
		}
		grp := s.out.AddGroup(newGroup(layer, tn, coreop.KindCompute, rows, c1-c0, reuse, deps))
		grp.UsefulWeights = int64(rows) * int64(c1-c0)
		if q != nil {
			w := make([][]int, rows)
			for r := 0; r < rows; r++ {
				w[r] = append([]int(nil), q[r][c0:c1]...)
			}
			grp.Weights = w
			grp.Eta = eta
			stage := s.recordStage(grp.ID, inRefs[:rows:rows])
			for k := 0; k < c1-c0; k++ {
				outRefs = append(outRefs, ExecRef{Stage: stage, Col: k})
			}
		}
		ids = append(ids, grp.ID)
	}
	return ids, outRefs, nil
}

// tileRowSplit handles matrices taller than the crossbar.
//
// Shape-only synthesis follows the paper's accounting: the partial counts
// of row tiles are summed digitally by the consumer-side SMB's embedded
// counters (§4.3's counters accumulate trains for free), and the per-tile
// ReLU placement is absorbed by the NN compiler's fine-tuning [19, 20] —
// so splitting costs no extra PEs beyond the weight-capacity bound.
//
// Functional synthesis is numerically exact on PE semantics instead: tiles
// emit positive/negative partial pairs (2× column footprint) and explicit
// reduction core-ops compute ReLU(Σ(p⁺−p⁻)), reproducing the true
// activation bit-for-bit in count space.
func (s *synthesizer) tileRowSplit(name, layer string, rows, cols, reuse int, deps []int, weights [][]float64, inRefs []ExecRef, rowTiles int) ([]int, []ExecRef, error) {
	if weights == nil {
		return s.tileRowSplitShape(name, layer, rows, cols, reuse, deps, rowTiles)
	}
	return s.tileRowSplitExact(name, layer, rows, cols, reuse, deps, weights, inRefs, rowTiles)
}

// tileRowSplitShape is the paper-accounting variant (no weights): plain
// ceil-tiling, partial sums merged in SMB counters.
func (s *synthesizer) tileRowSplitShape(name, layer string, rows, cols, reuse int, deps []int, rowTiles int) ([]int, []ExecRef, error) {
	var outIDs []int
	colTiles := (cols + s.maxCols - 1) / s.maxCols
	for ct := 0; ct < colTiles; ct++ {
		c0 := ct * s.maxCols
		c1 := min(c0+s.maxCols, cols)
		width := c1 - c0
		for rt := 0; rt < rowTiles; rt++ {
			r0 := rt * s.maxRows
			r1 := min(r0+s.maxRows, rows)
			grp := s.out.AddGroup(newGroup(layer,
				fmt.Sprintf("%s.t%d.%d", name, rt, ct), coreop.KindCompute, r1-r0, width, reuse, deps))
			grp.UsefulWeights = int64(r1-r0) * int64(width)
			outIDs = append(outIDs, grp.ID)
		}
	}
	return outIDs, nil, nil
}

// tileRowSplitExact is the numerically exact functional variant.
func (s *synthesizer) tileRowSplitExact(name, layer string, rows, cols, reuse int, deps []int, weights [][]float64, inRefs []ExecRef, rowTiles int) ([]int, []ExecRef, error) {
	redRowsPerOut := 2 * rowTiles
	pack := s.maxRows / redRowsPerOut
	if pack == 0 {
		return nil, nil, fmt.Errorf("tileMatrix %q: %d row tiles need hierarchical reduction (unsupported)", name, rowTiles)
	}
	colCap := s.maxCols / 2 // ± pairs halve the per-tile output width
	q := s.quantize(weights)
	eta := safeEta(q)
	maxW := s.peMaxWeight()
	var outIDs []int
	var outRefs []ExecRef
	colTiles := (cols + colCap - 1) / colCap
	for ct := 0; ct < colTiles; ct++ {
		c0 := ct * colCap
		c1 := min(c0+colCap, cols)
		width := c1 - c0
		tileIDs := make([]int, rowTiles)
		tileStages := make([]int, rowTiles)
		for rt := 0; rt < rowTiles; rt++ {
			r0 := rt * s.maxRows
			r1 := min(r0+s.maxRows, rows)
			grp := s.out.AddGroup(newGroup(layer,
				fmt.Sprintf("%s.t%d.%d", name, rt, ct), coreop.KindCompute, r1-r0, 2*width, reuse, deps))
			grp.UsefulWeights = int64(r1-r0) * int64(2*width)
			w := make([][]int, r1-r0)
			for r := r0; r < r1; r++ {
				row := make([]int, 2*width)
				for k := c0; k < c1; k++ {
					row[2*(k-c0)] = q[r][k]
					row[2*(k-c0)+1] = -q[r][k]
				}
				w[r-r0] = row
			}
			grp.Weights = w
			grp.Eta = eta
			tileStages[rt] = s.recordStage(grp.ID, inRefs[r0:r1:r1])
			tileIDs[rt] = grp.ID
		}
		for o0, ri := 0, 0; o0 < width; o0, ri = o0+pack, ri+1 {
			o1 := min(o0+pack, width)
			redW := o1 - o0
			red := s.out.AddGroup(newGroup(layer,
				fmt.Sprintf("%s.red%d.%d", name, ct, ri), coreop.KindReduce,
				redRowsPerOut*redW, redW, reuse, tileIDs))
			red.UsefulWeights = int64(redRowsPerOut) * int64(redW)
			w := make([][]int, redRowsPerOut*redW)
			for i := range w {
				w[i] = make([]int, redW)
			}
			refs := make([]ExecRef, 0, redRowsPerOut*redW)
			for k := 0; k < redW; k++ {
				for t := 0; t < rowTiles; t++ {
					rowP := k*redRowsPerOut + 2*t
					w[rowP][k] = maxW
					w[rowP+1][k] = -maxW
					refs = append(refs,
						ExecRef{Stage: tileStages[t], Col: 2 * (o0 + k)},
						ExecRef{Stage: tileStages[t], Col: 2*(o0+k) + 1})
				}
			}
			red.Weights = w
			red.Eta = safeEta(w)
			stage := s.recordStage(red.ID, refs)
			for k := 0; k < redW; k++ {
				outRefs = append(outRefs, ExecRef{Stage: stage, Col: k})
			}
			outIDs = append(outIDs, red.ID)
		}
	}
	return outIDs, outRefs, nil
}
