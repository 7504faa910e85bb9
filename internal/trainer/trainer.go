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
	"slices"
	"unsafe"

	"fpsa/internal/cgraph"
	"fpsa/internal/hostcpu"
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

// NewMLP initializes He-scaled random weights. dims needs at least two
// entries, each ≥ 1.
func NewMLP(rng *rand.Rand, dims []int) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("trainer: need ≥2 dims, got %v", dims)
	}
	for _, n := range dims {
		if n < 1 {
			return nil, fmt.Errorf("trainer: every dim must be ≥ 1, got %v", dims)
		}
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
	ws.forward(x)
	return ws.acts
}

// trainAVX2 selects the AVX2 bodies of the forward pass, the hidden
// layers' backward pass and the first layer's update (step_amd64.s). It is
// hostcpu.AVX2, fixed for the process; only tests change it, to run the
// trainer's tests under each body the CPU has.
var trainAVX2 = hostcpu.AVX2

// workspace holds everything one forward pass and SGD step read and write,
// sized for one network, so Train and Accuracy allocate it once per call
// rather than per sample: one float slab for the weights, activations and
// gradients, and the slices that view it.
type workspace struct {
	// w[l] is a copy of layer l's weights, flat and row-major: input i's
	// row is w[l][i·Dims[l+1]:][:Dims[l+1]]. Train runs every epoch here and
	// copies the weights back to the MLP (unpack).
	w [][]float64
	// acts[l] is layer l's input; acts[0] aliases the sample.
	acts [][]float64
	// grads[l] is dL/d(acts[l]) for l ≥ 1; grads[len(w)] is the output's.
	grads [][]float64
	// lg is the current layer's lr·grad row.
	lg []float64
	// rows[l] and xs[l] are layer l's rows whose input is non-zero in the
	// last forward pass, as offsets into its flat weights, and those
	// inputs, in ascending row order. The first layer's update reads them
	// again.
	rows [][]int
	xs   [][]float64
}

func newWorkspace(m *MLP) workspace {
	n := len(m.W)
	// Every part of the slab starts on a 32-byte boundary, and the slab on
	// a 64-byte one, so a flat layer whose width is a multiple of four has
	// no 256-bit block straddling a cache line.
	up := func(k int) int { return (k + 3) &^ 3 }
	size, ins := 0, 0
	for l := 0; l < n; l++ {
		in, out := m.Dims[l], m.Dims[l+1]
		size += up(in*out) + 2*up(out) + up(in)
		ins += in
	}
	size += up(slices.Max(m.Dims))
	slab := make([]float64, size+7)
	slab = slab[int(-uintptr(unsafe.Pointer(&slab[0]))&63/8):]
	take := func(k int) []float64 {
		s := slab[:k:k]
		slab = slab[up(k):]
		return s
	}
	offsets := make([]int, ins)
	ws := workspace{
		w:     make([][]float64, n),
		acts:  make([][]float64, n+1),
		grads: make([][]float64, n+1),
		rows:  make([][]int, n),
		xs:    make([][]float64, n),
	}
	for l, w := range m.W {
		in, out := m.Dims[l], m.Dims[l+1]
		flat := take(in * out)
		for i, row := range w {
			copy(flat[i*out:(i+1)*out], row)
		}
		ws.w[l] = flat
		ws.acts[l+1] = take(out)
		ws.grads[l+1] = take(out)
		ws.xs[l] = take(in)
		ws.rows[l], offsets = offsets[:in:in], offsets[in:]
	}
	ws.lg = take(slices.Max(m.Dims))
	return ws
}

// unpack copies the workspace's weights back into m.W.
func (ws *workspace) unpack(m *MLP) {
	for l, w := range m.W {
		cols := m.Dims[l+1]
		for i, row := range w {
			copy(row, ws.w[l][i*cols:(i+1)*cols])
		}
	}
}

// forward fills ws.acts for input x, and ws.rows and ws.xs.
func (ws *workspace) forward(x []float64) {
	ws.acts[0] = x
	for l, w := range ws.w {
		in, out := ws.acts[l], ws.acts[l+1]
		k := nonZero(ws.rows[l][:len(in)], ws.xs[l][:len(in)], in, len(out))
		ws.rows[l], ws.xs[l] = ws.rows[l][:k], ws.xs[l][:k]
		layerForward(out, w, ws.rows[l], ws.xs[l])
	}
}

// nonZero writes the offsets i·cols of the rows whose input in[i] is
// non-zero to rows, and those inputs to xs, in ascending order, and
// returns how many there are. Each row is written and kept by advancing
// the count, without a branch: a hidden layer's inputs are zero or not at
// random, and a branch here would mispredict often.
func nonZero(rows []int, xs, in []float64, cols int) int {
	rows, xs = rows[:len(in)], xs[:len(in)]
	k := 0
	for i, xi := range in {
		rows[k], xs[k] = i*cols, xi
		if xi != 0 {
			k++
		}
	}
	return k
}

// layerForward sets out = ReLU(in·w) from the rows with a non-zero input
// (ws.rows). Each output's sum is carried in a register down those rows
// in ascending order from +0 — the adds, and their order, of accumulating
// out[j] += w[i][j]·in[i] in memory row by row. The AVX2 body takes the
// columns in blocks of four; the portable one takes them 8, 4, then 1 at
// a time, and finishes the AVX2 body's last len(out) mod 4.
func layerForward(out, w []float64, rows []int, xs []float64) {
	n := len(out)
	j := 0
	if trainAVX2 && n >= 4 {
		j = n &^ 3
		forwardAVX2(&out[0], &w[0], unsafe.SliceData(rows), unsafe.SliceData(xs), len(rows), j/4)
	}
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, o := range rows {
			xi := xs[k]
			r := w[o+j : o+j+8 : o+j+8]
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
		for k, o := range rows {
			xi := xs[k]
			r := w[o+j : o+j+4 : o+j+4]
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
		for k, o := range rows {
			s += w[o+j] * xs[k]
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
		ws.forward(x)
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
// Target — a hardware-friendly objective that needs no softmax. The epochs
// run on the workspace's flat copy of the weights, which is copied back
// once at the end.
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
			ws.step(ds.X[idx], ds.Y[idx], opts.LR, opts.Target)
		}
	}
	ws.unpack(m)
}

// step backpropagates one sample through the workspace's weights. Every
// weight ends bit-identical to plain per-sample SGD (docs/INVARIANTS.md,
// "Trained weights ≡ naive SGD"). A hidden layer runs four rows at once in
// one pass (backward). The first layer has no gradient to pass down, so a
// row whose input is zero is left alone when every lr·grad is finite:
// then w − lr·grad·0 = w − (±0) = w, since no weight is ever −0.
func (ws *workspace) step(x []float64, label int, lr, target float64) {
	ws.forward(x)
	top := len(ws.w)
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
		in, w := ws.acts[l], ws.w[l]
		// lr·grad[j]·x evaluates left to right, so hoisting lr·grad[j]
		// leaves every product unchanged.
		lg := ws.lg[:len(grad)]
		// v − v is +0 for a finite v and NaN otherwise, so the sum is 0
		// exactly when every lr·grad is finite.
		var nonfinite float64
		for j, g := range grad {
			v := lr * g
			lg[j] = v
			nonfinite += v - v
		}
		finite := nonfinite == 0
		if l == 0 {
			if finite {
				update(w, lg, ws.rows[0], ws.xs[0])
			} else {
				// lr·grad·0 is NaN somewhere in every row.
				for i, xi := range in {
					updateRow(w[i*len(lg):(i+1)*len(lg)], lg, xi)
				}
			}
			break
		}
		next := ws.grads[l]
		backward(w, lg, grad, in, next)
		grad = next
	}
}

// backward updates a hidden layer, w[i][j] −= lg[j]·in[i], and sets next
// to the gradient at its input: next[i] = Σⱼ w[i][j]·grad[j] over the
// weights as they were before this step, one add chain per row in
// ascending j from +0, then the ReLU gate. Rows run four at a time, each
// weight updated right after it is read. The AVX2 body takes the whole
// groups of four rows over the columns in blocks of four and leaves each
// row's partial sum in next; the portable body (backward4) carries those
// chains on over the last len(grad) mod 4 columns, or runs the groups
// whole, and then the last len(in) mod 4 rows one at a time.
func backward(w, lg, grad, in, next []float64) {
	cols := len(grad)
	grouped := len(in) &^ 3 // rows in whole groups of four
	j0 := 0                 // next[:grouped] holds their sums up to column j0
	if trainAVX2 && cols >= 4 && grouped > 0 {
		j0 = cols &^ 3
		backwardAVX2(&w[0], &lg[0], &grad[0], &in[0], &next[0], grouped/4, j0/4, cols)
	} else {
		clear(next[:grouped])
	}
	if j0 < cols {
		for i := 0; i < grouped; i += 4 {
			backward4(w, lg, grad, in, next, i, j0)
		}
	}
	for i := grouped; i < len(in); i++ {
		wi := w[i*cols : (i+1)*cols]
		xi := in[i]
		var g float64
		for j, gj := range grad {
			a := wi[j]
			g += a * gj
			wi[j] = a - lg[j]*xi
		}
		next[i] = g
	}
	for i, xi := range in {
		next[i] = gate(next[i], xi)
	}
}

// backward4 runs rows i…i+3 of a hidden layer from column j0 on: four
// independent gradient add chains, carried on from next[i:i+4], each
// weight updated right after it is read.
func backward4(w, lg, grad, in, next []float64, i, j0 int) {
	cols := len(grad)
	grad, lg = grad[j0:], lg[j0:cols]
	w0 := w[i*cols+j0 : (i+1)*cols][:len(grad)]
	w1 := w[(i+1)*cols+j0 : (i+2)*cols][:len(grad)]
	w2 := w[(i+2)*cols+j0 : (i+3)*cols][:len(grad)]
	w3 := w[(i+3)*cols+j0 : (i+4)*cols][:len(grad)]
	x := in[i : i+4 : i+4]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	n := next[i : i+4 : i+4]
	g0, g1, g2, g3 := n[0], n[1], n[2], n[3]
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
	n[0], n[1], n[2], n[3] = g0, g1, g2, g3
}

// update applies w[o+j] −= lg[j]·x to the first layer's rows with a
// non-zero input (ws.rows[0] and ws.xs[0]). The AVX2 body takes the columns in blocks of four and the
// portable one (updateRow) the last len(lg) mod 4, or every column.
func update(w, lg []float64, rows []int, xs []float64) {
	cols := len(lg)
	j0 := 0
	if trainAVX2 && cols >= 4 {
		j0 = cols &^ 3
		updateAVX2(&w[0], &lg[0], unsafe.SliceData(rows), unsafe.SliceData(xs), len(rows), j0/4)
		if j0 == cols {
			return
		}
	}
	for k, o := range rows {
		updateRow(w[o+j0:o+cols], lg[j0:], xs[k])
	}
}

// updateRow applies w[j] −= lg[j]·x four columns per iteration: the loop's
// back-branch is taken once per four products, which keeps this short
// loop's speed independent of where the linker puts it.
func updateRow(w, lg []float64, x float64) {
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
		g = 0
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
