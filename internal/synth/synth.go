// Package synth implements FPSA's neural synthesizer (paper §5.1): it
// lowers a computational graph into a core-op graph containing only
// operations the hardware executes natively — ≤256×256 vector-matrix
// multiplications followed by ReLU.
//
// The lowering follows the compiler line of work the paper adopts [19, 20]:
//
//   - Convolutions are im2col'd and FC layers taken directly; matrices
//     larger than one crossbar are tiled. Row-split layers compute signed
//     partial sums as positive/negative logical-column pairs and a
//     reduction core-op recombines them (ReLU(Σ(p⁺−p⁻)) equals the true
//     activation).
//   - Max pooling becomes a tree of pairwise-max structures, each built
//     from two core-ops via max(a,b) = a + ReLU(b−a); average pooling is a
//     single 1/K² matrix; LRN is approximated by a small two-layer MLP;
//     residual adds become two-row columns. These small matrices are
//     block-diagonally packed across channels, which is exactly why
//     synthesized pooling dominates PE counts in GoogLeNet (§7.3).
//
// With supplied trained weights, synthesis additionally produces an
// executable Program for FC and ungrouped conv layers, pooling, global
// average pooling and residual adds, whose stages run on actual PE models
// (integer reference or cycle-level spiking simulation). Every weight
// layer goes through one exact matrix lowering (exactMatrix), invoked once
// per FC pass or conv position. One type runs the program: an Executor
// over one or more simulated chips, walking every stage in order on the
// caller's goroutine, with the same programming loop and stage walk at
// every chip count.
package synth

import (
	"fmt"
	"slices"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
)

// Options configures synthesis.
type Options struct {
	// Params supplies the PE's logical crossbar dimensions.
	Params device.Params
	// Weights optionally supplies trained float weights per layer name
	// (FC [in][out], conv [K²·Cin][OutC]) for functional synthesis; a
	// matrix of the wrong shape or holding a NaN or an infinity fails it.
	// Shape-only synthesis leaves Weights nil.
	Weights func(layer string) [][]float64
}

// DefaultOptions returns shape-only synthesis at the evaluated 45 nm
// configuration.
func DefaultOptions() Options { return Options{Params: device.Params45nm} }

// Synthesize lowers g into a core-op graph.
func Synthesize(g *cgraph.Graph, opts Options) (*coreop.Graph, error) {
	co, _, err := synthesize(g, opts)
	return co, err
}

func synthesize(g *cgraph.Graph, opts Options) (*coreop.Graph, *Program, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("synth: %w", err)
	}
	s := &synthesizer{
		opts:     opts,
		maxRows:  opts.Params.CrossbarRows,
		maxCols:  opts.Params.LogicalColumns(),
		out:      &coreop.Graph{Name: g.Name},
		produced: make(map[int][]int),
		nodeRefs: make(map[int][]ExecRef),
		shared:   make(map[sharedKey]int),
	}
	for _, n := range g.Nodes() {
		if err := s.lower(n); err != nil {
			return nil, nil, fmt.Errorf("synth: node %q: %w", n.Name, err)
		}
		if opts.Weights != nil {
			refs := s.nodeRefs[n.ID]
			if len(refs) != n.OutShape.Elems() {
				return nil, nil, fmt.Errorf("synth: node %q: %d output refs, want %d", n.Name, len(refs), n.OutShape.Elems())
			}
			s.produced[n.ID] = s.producers(refs)
		}
	}
	if err := s.out.Validate(s.maxRows, s.maxCols); err != nil {
		return nil, nil, err
	}
	var prog *Program
	if opts.Weights != nil {
		outs := g.Outputs()
		if len(outs) != 1 {
			return nil, nil, fmt.Errorf("synth: functional synthesis needs one output, got %d", len(outs))
		}
		prog = &Program{
			Graph:      s.out,
			Params:     opts.Params,
			Stages:     s.ExecStages,
			OutputRefs: s.nodeRefs[outs[0].ID],
			InputSize:  s.inputSize,
		}
	}
	return s.out, prog, nil
}

type synthesizer struct {
	opts     Options
	maxRows  int
	maxCols  int
	out      *coreop.Graph
	produced map[int][]int // CG node ID → group IDs carrying its output

	// Functional-path state.
	nodeRefs   map[int][]ExecRef // CG node ID → refs of its logical outputs
	ExecStages []ExecStage
	inputSize  int
	// shared holds the structural groups (pairwise max, averaging,
	// residual add), so one programmed crossbar serves every invocation.
	shared map[sharedKey]int
}

// recordStage appends an executable stage and returns its index.
func (s *synthesizer) recordStage(groupID int, inRefs []ExecRef) int {
	s.ExecStages = append(s.ExecStages, ExecStage{GroupID: groupID, InRefs: append([]ExecRef(nil), inRefs...)})
	return len(s.ExecStages) - 1
}

// depsOf gathers the producing groups of a node's operands.
func (s *synthesizer) depsOf(n *cgraph.Node) []int {
	var deps []int
	seen := make(map[int]bool)
	for _, in := range n.Inputs {
		for _, gid := range s.produced[in.ID] {
			if !seen[gid] {
				seen[gid] = true
				deps = append(deps, gid)
			}
		}
	}
	return deps
}

// producers lists, in order of first use, the groups whose stages carry
// refs: a functional node's produced groups.
func (s *synthesizer) producers(refs []ExecRef) []int {
	var ids []int
	for _, r := range refs {
		if r.Stage < 0 {
			continue
		}
		if gid := s.ExecStages[r.Stage].GroupID; !slices.Contains(ids, gid) {
			ids = append(ids, gid)
		}
	}
	return ids
}

// refsOf concatenates the operand refs of a node in operand order.
func (s *synthesizer) refsOf(n *cgraph.Node) []ExecRef {
	var refs []ExecRef
	for _, in := range n.Inputs {
		refs = append(refs, s.nodeRefs[in.ID]...)
	}
	return refs
}

// lower dispatches one CG node.
func (s *synthesizer) lower(n *cgraph.Node) error {
	switch op := n.Op.(type) {
	case cgraph.Input:
		s.produced[n.ID] = nil
		if s.opts.Weights != nil {
			size := n.OutShape.Elems()
			s.inputSize = size
			refs := make([]ExecRef, size)
			for i := range refs {
				refs[i] = ExecRef{Stage: ExternalStage, Col: i}
			}
			s.nodeRefs[n.ID] = refs
		}
		return nil
	case cgraph.Conv2D:
		if s.opts.Weights != nil {
			return s.lowerConvExact(n, op)
		}
		return s.lowerConv(n, op)
	case cgraph.FC:
		return s.lowerFC(n, op)
	case cgraph.Pool:
		if s.opts.Weights != nil {
			if op.PoolKind == cgraph.AvgPoolKind {
				return s.lowerAvgPoolExact(n, op.Kernel, op.Kernel, op.Stride, op.Pad)
			}
			return s.lowerMaxPoolExact(n, op)
		}
		return s.lowerPool(n, op)
	case cgraph.GlobalAvgPool:
		if s.opts.Weights != nil {
			in := n.Inputs[0].OutShape
			return s.lowerAvgPoolExact(n, in.H, in.W, 1, 0)
		}
		return s.lowerGlobalAvgPool(n)
	case cgraph.LRN:
		if s.opts.Weights != nil {
			return fmt.Errorf("functional synthesis does not support LRN (%q)", n.Name)
		}
		return s.lowerLRN(n)
	case cgraph.Add:
		if s.opts.Weights != nil {
			return s.lowerAddExact(n)
		}
		return s.lowerAdd(n)
	case cgraph.ReLU, cgraph.BatchNorm, cgraph.Dropout, cgraph.Flatten,
		cgraph.Softmax, cgraph.Concat:
		// ReLU fuses into the producing core-ops; BatchNorm folds into
		// the preceding convolution's weights; Concat/Flatten are pure
		// wiring; Dropout/Softmax run off-fabric.
		s.produced[n.ID] = s.depsOf(n)
		s.nodeRefs[n.ID] = s.refsOf(n)
		return nil
	default:
		return fmt.Errorf("unsupported op %q", op.Kind())
	}
}

// lowerConv tiles an im2col'd convolution for shape-only synthesis
// (lowerConvExact is the functional lowering).
func (s *synthesizer) lowerConv(n *cgraph.Node, op cgraph.Conv2D) error {
	groups := 1
	if op.Groups > 1 {
		groups = op.Groups
	}
	inC := n.Inputs[0].OutShape.C
	rows := op.Kernel * op.Kernel * inC / groups
	cols := op.OutC / groups
	reuse := n.OutShape.H * n.OutShape.W
	deps := s.depsOf(n)
	var outGroups []int
	for gi := 0; gi < groups; gi++ {
		name := n.Name
		if groups > 1 {
			name = fmt.Sprintf("%s.g%d", n.Name, gi)
		}
		ids, err := s.tileMatrix(name, n.Name, rows, cols, reuse, deps)
		if err != nil {
			return err
		}
		outGroups = append(outGroups, ids...)
	}
	s.produced[n.ID] = outGroups
	return nil
}

// lowerFC lowers a fully connected layer (reuse degree 1): tiled for
// shape-only synthesis, one exact matrix invoked once with trained weights.
func (s *synthesizer) lowerFC(n *cgraph.Node, op cgraph.FC) error {
	rows := n.Inputs[0].OutShape.Elems()
	if s.opts.Weights == nil {
		ids, err := s.tileMatrix(n.Name, n.Name, rows, op.Out, 1, s.depsOf(n))
		s.produced[n.ID] = ids
		return err
	}
	mat, err := s.exactLayer(n, rows, op.Out, 1)
	if err != nil {
		return err
	}
	s.nodeRefs[n.ID] = mat.invoke(s.nodeRefs[n.Inputs[0].ID])
	return nil
}
