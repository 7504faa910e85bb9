// Package trainer is a small pure-Go neural-network trainer used to obtain
// real trained weights for the functional experiments — most importantly
// the device-variation accuracy study (paper Figure 9), whose subject
// network substitutes for VGG16/ImageNet (see DESIGN.md §2: the study
// exercises the identical quantize → program-cells → perturb → re-evaluate
// code path on any trained network).
//
// Networks are bias-free MLPs with ReLU after every layer, including the
// classifier — exactly the function class FPSA's core-op executes — so the
// trained model maps onto the hardware with no structural approximation.
package trainer

import (
	"fmt"
	"math"
	"math/rand"

	"fpsa/internal/cgraph"
)

// Dataset is a labeled feature set with features in [0, 1].
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (d Dataset) Len() int { return len(d.X) }

// Split partitions the dataset: the first ceil(frac·n) samples become the
// training set, the rest the held-out set. Samples are interleaved by
// class at generation time, so both halves cover every class.
func (d Dataset) Split(frac float64) (train, test Dataset) {
	cut := int(math.Ceil(frac * float64(d.Len())))
	if cut > d.Len() {
		cut = d.Len()
	}
	train = Dataset{X: d.X[:cut], Y: d.Y[:cut], Classes: d.Classes}
	test = Dataset{X: d.X[cut:], Y: d.Y[cut:], Classes: d.Classes}
	return train, test
}

// SyntheticClusters generates a classification dataset: `classes` Gaussian
// clusters with random centers in [0.2, 0.8]^dim and the given noise
// standard deviation, n samples total, features clamped to [0, 1].
func SyntheticClusters(rng *rand.Rand, n, dim, classes int, noise float64) Dataset {
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = 0.2 + 0.6*rng.Float64()
		}
	}
	ds := Dataset{X: make([][]float64, n), Y: make([]int, n), Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for j := range x {
			v := centers[c][j] + rng.NormFloat64()*noise
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			x[j] = v
		}
		ds.X[i] = x
		ds.Y[i] = c
	}
	return ds
}

// MLP is a bias-free multi-layer perceptron with ReLU everywhere.
type MLP struct {
	// Dims is [input, hidden..., classes].
	Dims []int
	// W[l][i][j] is layer l's weight from input i to output j.
	W [][][]float64
}

// NewMLP initializes He-scaled random weights.
func NewMLP(rng *rand.Rand, dims []int) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("trainer: need ≥2 dims, got %v", dims)
	}
	m := &MLP{Dims: append([]int(nil), dims...)}
	for l := 0; l+1 < len(dims); l++ {
		scale := math.Sqrt(2 / float64(dims[l]))
		w := make([][]float64, dims[l])
		for i := range w {
			w[i] = make([]float64, dims[l+1])
			for j := range w[i] {
				w[i][j] = rng.NormFloat64() * scale
			}
		}
		m.W = append(m.W, w)
	}
	return m, nil
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// Forward runs inference, returning every layer's post-ReLU activations
// (acts[0] is the input).
func (m *MLP) Forward(x []float64) [][]float64 {
	ws := newWorkspace(m)
	m.forward(ws, x)
	return ws.acts
}

// workspace holds everything one forward pass and SGD step write, sized
// for one network, so Train and Accuracy allocate it once per call rather
// than per sample.
type workspace struct {
	// acts[l] is layer l's input; acts[0] aliases the sample.
	acts [][]float64
	// grads[l] is dL/d(acts[l]) for l ≥ 1; grads[len(W)] is the output's.
	grads [][]float64
	// lg is the current layer's lr·grad row.
	lg []float64
	// rows and xs are one layer's rows with a non-zero input, and those
	// inputs, in ascending row order.
	rows [][]float64
	xs   []float64
}

func newWorkspace(m *MLP) *workspace {
	n := len(m.W)
	ws := &workspace{acts: make([][]float64, n+1), grads: make([][]float64, n+1)}
	widest := 0
	for l, d := range m.Dims {
		if l > 0 {
			ws.acts[l] = make([]float64, d)
			ws.grads[l] = make([]float64, d)
		}
		widest = max(widest, d)
	}
	ws.lg = make([]float64, widest)
	ws.rows = make([][]float64, widest)
	ws.xs = make([]float64, widest)
	return ws
}

// forward fills ws.acts for input x.
func (m *MLP) forward(ws *workspace, x []float64) {
	ws.acts[0] = x
	for l, w := range m.W {
		layerForward(ws, ws.acts[l+1], ws.acts[l], w)
	}
}

// layerForward sets out = ReLU(in·w). Rows whose input is zero are left
// out, and each output's sum is carried in a register down the remaining
// rows in ascending order from +0 — the adds, and their order, of
// accumulating out[j] += w[i][j]·in[i] in memory row by row.
func layerForward(ws *workspace, out, in []float64, w [][]float64) {
	rows, xs := ws.rows[:0], ws.xs[:0]
	for i, wi := range w {
		if xi := in[i]; xi != 0 {
			rows = append(rows, wi)
			xs = append(xs, xi)
		}
	}
	xs = xs[:len(rows)]
	n := len(out)
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, wi := range rows {
			xi := xs[k]
			r := wi[j : j+8 : j+8]
			s0 += r[0] * xi
			s1 += r[1] * xi
			s2 += r[2] * xi
			s3 += r[3] * xi
			s4 += r[4] * xi
			s5 += r[5] * xi
			s6 += r[6] * xi
			s7 += r[7] * xi
		}
		o := out[j : j+8 : j+8]
		o[0], o[1], o[2], o[3] = relu(s0), relu(s1), relu(s2), relu(s3)
		o[4], o[5], o[6], o[7] = relu(s4), relu(s5), relu(s6), relu(s7)
	}
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float64
		for k, wi := range rows {
			xi := xs[k]
			r := wi[j : j+4 : j+4]
			s0 += r[0] * xi
			s1 += r[1] * xi
			s2 += r[2] * xi
			s3 += r[3] * xi
		}
		o := out[j : j+4 : j+4]
		o[0], o[1], o[2], o[3] = relu(s0), relu(s1), relu(s2), relu(s3)
	}
	for ; j < n; j++ {
		var s float64
		for k, wi := range rows {
			s += wi[j] * xs[k]
		}
		out[j] = relu(s)
	}
}

func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Predict returns the argmax class.
func (m *MLP) Predict(x []float64) int {
	acts := m.Forward(x)
	return argmax(acts[len(acts)-1])
}

func argmax(out []float64) int {
	best := 0
	for j, v := range out {
		if v > out[best] {
			best = j
		}
	}
	return best
}

// Accuracy evaluates classification accuracy on a dataset.
func (m *MLP) Accuracy(ds Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	ws := newWorkspace(m)
	correct := 0
	for i, x := range ds.X {
		m.forward(ws, x)
		if argmax(ws.acts[len(m.W)]) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// TrainOptions configures SGD.
type TrainOptions struct {
	Epochs int
	LR     float64
	// Target is the one-hot magnitude (ReLU outputs regress toward it;
	// default 1).
	Target float64
}

// Train runs plain SGD with squared loss on the ReLU outputs. The final
// ReLU means wrong-class outputs are pushed to 0 and the true class toward
// Target — a hardware-friendly objective that needs no softmax.
func (m *MLP) Train(rng *rand.Rand, ds Dataset, opts TrainOptions) {
	if opts.Epochs <= 0 {
		opts.Epochs = 30
	}
	if opts.LR <= 0 {
		opts.LR = 0.05
	}
	if opts.Target <= 0 {
		opts.Target = 1
	}
	order := rng.Perm(ds.Len())
	ws := newWorkspace(m)
	for e := 0; e < opts.Epochs; e++ {
		for _, idx := range order {
			m.step(ws, ds.X[idx], ds.Y[idx], opts.LR, opts.Target)
		}
	}
}

// step backpropagates one sample through ws. Every weight ends bit-identical
// to plain per-sample SGD (docs/INVARIANTS.md, "Trained weights ≡ naive
// SGD"). A hidden layer runs four rows at once in one pass: four
// independent gradient add chains, each in ascending output order over the
// weights as they were before this step, and each weight updated right
// after it is read. The first layer has no gradient to pass down, so a row
// whose input is zero is left alone when every lr·grad is finite: then
// w − lr·grad·0 = w − (±0) = w, since no weight is ever −0.
func (m *MLP) step(ws *workspace, x []float64, label int, lr, target float64) {
	m.forward(ws, x)
	top := len(m.W)
	out, grad := ws.acts[top], ws.grads[top]
	// dL/dout with L = Σ (out − t)².
	for j := range out {
		t := 0.0
		if j == label {
			t = target
		}
		grad[j] = 2 * (out[j] - t)
		if out[j] == 0 && grad[j] > 0 {
			grad[j] = 0 // ReLU gate
		}
	}
	for l := top - 1; l >= 0; l-- {
		in, w := ws.acts[l], m.W[l]
		// lr·grad[j]·x evaluates left to right, so hoisting lr·grad[j]
		// leaves every product unchanged.
		lg := ws.lg[:len(grad)]
		finite := true
		for j, g := range grad {
			v := lr * g
			lg[j] = v
			finite = finite && v-v == 0
		}
		if l == 0 {
			for i, wi := range w {
				if xi := in[i]; xi != 0 || !finite {
					update(wi, lg, xi)
				}
			}
			break
		}
		next := ws.grads[l]
		i := 0
		for ; i+4 <= len(w); i += 4 {
			w0, w1, w2, w3 := w[i][:len(grad)], w[i+1][:len(grad)], w[i+2][:len(grad)], w[i+3][:len(grad)]
			x := in[i : i+4 : i+4]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			var g0, g1, g2, g3 float64
			for j, gj := range grad {
				v := lg[j]
				a0, a1, a2, a3 := w0[j], w1[j], w2[j], w3[j]
				g0 += a0 * gj
				g1 += a1 * gj
				g2 += a2 * gj
				g3 += a3 * gj
				w0[j] = a0 - v*x0
				w1[j] = a1 - v*x1
				w2[j] = a2 - v*x2
				w3[j] = a3 - v*x3
			}
			n := next[i : i+4 : i+4]
			n[0], n[1], n[2], n[3] = gate(g0, x0), gate(g1, x1), gate(g2, x2), gate(g3, x3)
		}
		for ; i < len(w); i++ {
			wi := w[i][:len(grad)]
			xi := in[i]
			var g float64
			for j, gj := range grad {
				a := wi[j]
				g += a * gj
				wi[j] = a - lg[j]*xi
			}
			next[i] = gate(g, xi)
		}
		grad = next
	}
}

// update applies w[j] −= lg[j]·x four columns per iteration: the loop's
// back-branch is taken once per four products, which keeps this short
// loop's speed independent of where the linker puts it.
func update(w, lg []float64, x float64) {
	w = w[:len(lg)]
	j := 0
	for ; j+4 <= len(lg); j += 4 {
		r, g := w[j:j+4:j+4], lg[j:j+4:j+4]
		r[0] -= g[0] * x
		r[1] -= g[1] * x
		r[2] -= g[2] * x
		r[3] -= g[3] * x
	}
	for ; j < len(lg); j++ {
		w[j] -= lg[j] * x
	}
}

// gate is the ReLU gate on a hidden activation's gradient.
func gate(g, x float64) float64 {
	if x == 0 && g > 0 {
		return 0
	}
	return g
}

// LayerName returns the canonical layer name used by Graph and
// WeightSource ("fc1", "fc2", ...).
func LayerName(l int) string { return fmt.Sprintf("fc%d", l+1) }

// Graph builds the matching computational graph (Input → FC+ReLU ... →
// FC+ReLU), suitable for synth.Compile.
func (m *MLP) Graph(name string) *cgraph.Graph {
	g := cgraph.New(name)
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(m.Dims[0])})
	for l := 0; l < m.Layers(); l++ {
		x = g.MustAdd(LayerName(l), cgraph.FC{Out: m.Dims[l+1]}, x)
		x = g.MustAdd(LayerName(l)+"_relu", cgraph.ReLU{}, x)
	}
	return g
}

// WeightSource adapts the trained weights to synth.Options.Weights.
func (m *MLP) WeightSource() func(layer string) [][]float64 {
	byName := make(map[string][][]float64, m.Layers())
	for l, w := range m.W {
		byName[LayerName(l)] = w
	}
	return func(layer string) [][]float64 { return byName[layer] }
}

// Clone deep-copies the network (perturbation studies mutate copies).
func (m *MLP) Clone() *MLP {
	c := &MLP{Dims: append([]int(nil), m.Dims...)}
	for _, w := range m.W {
		cw := make([][]float64, len(w))
		for i := range w {
			cw[i] = append([]float64(nil), w[i]...)
		}
		c.W = append(c.W, cw)
	}
	return c
}
