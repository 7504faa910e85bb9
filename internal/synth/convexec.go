package synth

import (
	"fmt"

	"fpsa/internal/cgraph"
)

// This file implements the functional (executable) lowering of
// convolutional networks. Weight groups are created once and shared by
// every output position — exactly the paper's weight-reuse structure — and
// each position records an execution stage referencing the group, so the
// executor programs one PE per group and time-multiplexes it across
// positions, like the mapped chip does.
//
// Tensor references follow CHW order: signal (c, y, x) lives at ref index
// (c·H + y)·W + x. Padding reads the constant-zero ref.

// chwIndex flattens a tensor coordinate.
func chwIndex(shape cgraph.Shape, c, y, x int) int {
	return (c*shape.H+y)*shape.W + x
}

// padded returns the ref of signal (c, y, x) of a shape-sized tensor, or
// the constant zero when (y, x) falls in the padding.
func padded(refs []ExecRef, shape cgraph.Shape, c, y, x int) ExecRef {
	if y < 0 || y >= shape.H || x < 0 || x >= shape.W {
		return ExecRef{Stage: ZeroStage}
	}
	return refs[chwIndex(shape, c, y, x)]
}

// exactLayer builds the matrix of a weight layer from the layer's trained
// weights.
func (s *synthesizer) exactLayer(n *cgraph.Node, rows, cols, reuse int) (*exactMatrix, error) {
	w := s.opts.Weights(n.Name)
	if w == nil {
		return nil, fmt.Errorf("functional synthesis missing weights for layer %q", n.Name)
	}
	return s.buildExactMatrix(n.Name, n.Name, rows, cols, reuse, s.depsOf(n), w)
}

// lowerConvExact lowers an ungrouped convolution with trained weights
// ([K²·Cin][OutC], rows ordered (c, ky, kx)).
func (s *synthesizer) lowerConvExact(n *cgraph.Node, op cgraph.Conv2D) error {
	if op.Groups > 1 {
		return fmt.Errorf("functional synthesis does not support grouped conv %q", n.Name)
	}
	in := n.Inputs[0].OutShape
	rows := op.Kernel * op.Kernel * in.C
	mat, err := s.exactLayer(n, rows, op.OutC, n.OutShape.H*n.OutShape.W)
	if err != nil {
		return err
	}
	inRefs := s.nodeRefs[n.Inputs[0].ID]
	outRefs := make([]ExecRef, n.OutShape.Elems())
	window := make([]ExecRef, rows)
	for oy := 0; oy < n.OutShape.H; oy++ {
		for ox := 0; ox < n.OutShape.W; ox++ {
			for c := 0; c < in.C; c++ {
				for ky := 0; ky < op.Kernel; ky++ {
					for kx := 0; kx < op.Kernel; kx++ {
						window[(c*op.Kernel+ky)*op.Kernel+kx] = padded(inRefs, in, c,
							oy*op.Stride-op.Pad+ky, ox*op.Stride-op.Pad+kx)
					}
				}
			}
			for oc, ref := range mat.invoke(window) {
				outRefs[chwIndex(n.OutShape, oc, oy, ox)] = ref
			}
		}
	}
	s.nodeRefs[n.ID] = outRefs
	return nil
}
