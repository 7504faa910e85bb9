package synth

import (
	"fmt"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
)

// Functional lowering of the weight-free structural operations: max
// pooling via the pairwise-max construction max(a,b) = a + ReLU(b−a)
// (two core-ops per pair), exact average pooling via 1/K² columns, and
// residual adds via two-row identity columns. The matrices are shared
// across every position, level and layer invocation — a single weight
// group per structure and width — mirroring how the chip would
// time-multiplex one programmed crossbar.

// sharedKey identifies one shared structural crossbar: its operation, the
// rows each of its columns reads, and its width in columns.
type sharedKey struct {
	op       string
	k, width int
}

// sharedGroup returns the group of key's crossbar: block-diagonal, output
// column c reading rows c·k … c·k+k−1 with the weights of column. The
// first use creates it; every later use counts one more invocation.
func (s *synthesizer) sharedGroup(key sharedKey, layer string, kind coreop.Kind, column []int, eta float64, deps []int) int {
	if gid, ok := s.shared[key]; ok {
		s.out.Groups[gid].Reuse++
		return gid
	}
	k, width := len(column), key.width
	grp := s.out.AddGroup(newGroup(layer, fmt.Sprintf("%s%dx%d", key.op, k, width),
		kind, k*width, width, 1, deps))
	grp.UsefulWeights = int64(k) * int64(width)
	grp.Weights = make([][]int, k*width)
	for i := range grp.Weights {
		grp.Weights[i] = make([]int, width)
		grp.Weights[i][i/k] = column[i%k]
	}
	grp.Eta = eta
	s.shared[key] = grp.ID
	return grp.ID
}

// pairwiseMax records the two stages computing elementwise max(a, b).
func (s *synthesizer) pairwiseMax(a, b []ExecRef, deps []int) []ExecRef {
	width := len(a)
	maxW := s.peMaxWeight()
	interleave := func(x, y []ExecRef) []ExecRef {
		refs := make([]ExecRef, 0, 2*width)
		for c := 0; c < width; c++ {
			refs = append(refs, x[c], y[c])
		}
		return refs
	}
	// d = ReLU(b − a), then ReLU(a + d) = max(a, b).
	diff := s.sharedGroup(sharedKey{"pmax.d", 2, width}, "pairwise-max", coreop.KindPool,
		[]int{-maxW, maxW}, float64(maxW), deps)
	d := appendCols(nil, s.recordStage(diff, interleave(a, b)), width)
	comb := s.sharedGroup(sharedKey{"pmax.c", 2, width}, "pairwise-max", coreop.KindPool,
		[]int{maxW, maxW}, float64(maxW), deps)
	return appendCols(nil, s.recordStage(comb, interleave(a, d)), width)
}

// lowerMaxPoolExact lowers max pooling functionally.
func (s *synthesizer) lowerMaxPoolExact(n *cgraph.Node, op cgraph.Pool) error {
	in := n.Inputs[0].OutShape
	inRefs := s.nodeRefs[n.Inputs[0].ID]
	deps := s.depsOf(n)
	pack := s.maxRows / 2
	outRefs := make([]ExecRef, n.OutShape.Elems())
	for oy := 0; oy < n.OutShape.H; oy++ {
		for ox := 0; ox < n.OutShape.W; ox++ {
			for c0 := 0; c0 < in.C; c0 += pack {
				width := min(pack, in.C-c0)
				// Gather the window's k² value vectors for this
				// channel slice.
				vals := make([][]ExecRef, 0, op.Kernel*op.Kernel)
				for ky := 0; ky < op.Kernel; ky++ {
					for kx := 0; kx < op.Kernel; kx++ {
						v := make([]ExecRef, width)
						for c := range v {
							v[c] = padded(inRefs, in, c0+c, oy*op.Stride-op.Pad+ky, ox*op.Stride-op.Pad+kx)
						}
						vals = append(vals, v)
					}
				}
				// Pairwise reduction tree.
				for len(vals) > 1 {
					var next [][]ExecRef
					for i := 0; i+1 < len(vals); i += 2 {
						next = append(next, s.pairwiseMax(vals[i], vals[i+1], deps))
					}
					if len(vals)%2 == 1 {
						next = append(next, vals[len(vals)-1])
					}
					vals = next
				}
				for c := 0; c < width; c++ {
					outRefs[chwIndex(n.OutShape, c0+c, oy, ox)] = vals[0][c]
				}
			}
		}
	}
	s.nodeRefs[n.ID] = outRefs
	return nil
}

// lowerAvgPoolExact lowers average pooling over a kh×kw window
// functionally; global average pooling is the whole plane at one output
// position.
func (s *synthesizer) lowerAvgPoolExact(n *cgraph.Node, kh, kw, stride, pad int) error {
	in := n.Inputs[0].OutShape
	inRefs := s.nodeRefs[n.Inputs[0].ID]
	deps := s.depsOf(n)
	k2 := kh * kw
	maxW := s.peMaxWeight()
	cellW := maxW / k2
	if cellW == 0 {
		return fmt.Errorf("layer %q: window %d too large for %d-level weights", n.Name, k2, maxW)
	}
	pack := s.maxRows / k2
	if pack < 1 {
		return fmt.Errorf("layer %q: window %d exceeds crossbar rows", n.Name, k2)
	}
	column := make([]int, k2)
	for i := range column {
		column[i] = cellW
	}
	outRefs := make([]ExecRef, n.OutShape.Elems())
	for oy := 0; oy < n.OutShape.H; oy++ {
		for ox := 0; ox < n.OutShape.W; ox++ {
			for c0 := 0; c0 < in.C; c0 += pack {
				width := min(pack, in.C-c0)
				refs := make([]ExecRef, 0, k2*width)
				for c := c0; c < c0+width; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							refs = append(refs, padded(inRefs, in, c, oy*stride-pad+ky, ox*stride-pad+kx))
						}
					}
				}
				gid := s.sharedGroup(sharedKey{"avg", k2, width}, n.Name, coreop.KindPool,
					column, float64(cellW*k2), deps)
				stage := s.recordStage(gid, refs)
				for c := 0; c < width; c++ {
					outRefs[chwIndex(n.OutShape, c0+c, oy, ox)] = ExecRef{Stage: stage, Col: c}
				}
			}
		}
	}
	s.nodeRefs[n.ID] = outRefs
	return nil
}

// lowerAddExact lowers the elementwise residual add functionally:
// out = ReLU(a + b) per element, packed 128 elements per stage.
func (s *synthesizer) lowerAddExact(n *cgraph.Node) error {
	if len(n.Inputs) != 2 {
		return fmt.Errorf("functional synthesis supports binary adds only (%q has %d operands)", n.Name, len(n.Inputs))
	}
	a := s.nodeRefs[n.Inputs[0].ID]
	b := s.nodeRefs[n.Inputs[1].ID]
	deps := s.depsOf(n)
	maxW := s.peMaxWeight()
	pack := s.maxRows / 2
	var outRefs []ExecRef
	for e0 := 0; e0 < len(a); e0 += pack {
		width := min(pack, len(a)-e0)
		refs := make([]ExecRef, 0, 2*width)
		for e := e0; e < e0+width; e++ {
			refs = append(refs, a[e], b[e])
		}
		gid := s.sharedGroup(sharedKey{"add", 2, width}, n.Name, coreop.KindElementwise,
			[]int{maxW, maxW}, float64(maxW), deps)
		outRefs = appendCols(outRefs, s.recordStage(gid, refs), width)
	}
	s.nodeRefs[n.ID] = outRefs
	return nil
}
