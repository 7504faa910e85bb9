package fpsa

import (
	"fmt"

	"fpsa/internal/cgraph"
)

// ModelBuilder constructs custom feed-forward networks for compilation
// onto FPSA: convolutions, fully connected layers, ReLU and pooling. Calls
// chain; the first error sticks and is reported by Build. Residual and
// inception topologies come from LoadBenchmark.
type ModelBuilder struct {
	g   *cgraph.Graph
	cur *cgraph.Node
	err error
	n   int
}

// NewModelBuilder starts a model with a C×H×W input (use H = W = 1 for
// flat feature vectors).
func NewModelBuilder(name string, c, h, w int) *ModelBuilder {
	b := &ModelBuilder{g: cgraph.New(name)}
	b.cur, b.err = b.g.Input("input", cgraph.Shape{C: c, H: h, W: w})
	return b
}

// add appends an op consuming the current node.
func (b *ModelBuilder) add(op cgraph.Op) *ModelBuilder {
	if b.err != nil {
		return b
	}
	b.n++
	b.cur, b.err = b.g.Add(fmt.Sprintf("%s%d", op.Kind(), b.n), op, b.cur)
	return b
}

// Conv2D appends a square convolution.
func (b *ModelBuilder) Conv2D(outC, kernel, stride, pad int) *ModelBuilder {
	return b.add(cgraph.Conv2D{OutC: outC, Kernel: kernel, Stride: stride, Pad: pad})
}

// FC appends a fully connected layer. Its input must be flat (H = W = 1):
// the model input, or the output of GlobalAvgPool or another FC.
func (b *ModelBuilder) FC(out int) *ModelBuilder { return b.add(cgraph.FC{Out: out}) }

// ReLU appends a rectifier.
func (b *ModelBuilder) ReLU() *ModelBuilder { return b.add(cgraph.ReLU{}) }

// MaxPool appends a max-pooling window.
func (b *ModelBuilder) MaxPool(kernel, stride int) *ModelBuilder {
	return b.add(cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: kernel, Stride: stride})
}

// GlobalAvgPool appends a global average pool.
func (b *ModelBuilder) GlobalAvgPool() *ModelBuilder { return b.add(cgraph.GlobalAvgPool{}) }

// Build finalizes the model.
func (b *ModelBuilder) Build() (Model, error) {
	if b.err != nil {
		return Model{}, b.err
	}
	if err := b.g.Validate(); err != nil {
		return Model{}, err
	}
	return Model{graph: b.g}, nil
}
