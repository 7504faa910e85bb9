package trainer

import (
	"math"
	"math/rand"
	"testing"
)

// naiveForward is the trainer's forward pass written plainly: one
// accumulator per output, updated in memory, rows with a zero input
// skipped. It is the oracle the register-blocked forward kernel must
// match bit for bit.
func naiveForward(m *MLP, x []float64) [][]float64 {
	acts := make([][]float64, len(m.W)+1)
	acts[0] = x
	for l, w := range m.W {
		out := make([]float64, m.Dims[l+1])
		in := acts[l]
		for i, wi := range w {
			xi := in[i]
			if xi == 0 {
				continue
			}
			for j, wij := range wi {
				out[j] += wij * xi
			}
		}
		for j := range out {
			if out[j] < 0 {
				out[j] = 0
			}
		}
		acts[l+1] = out
	}
	return acts
}

// naiveStep is one SGD step written plainly: fresh buffers per call, one
// serial add chain per hidden gradient, every weight updated. It is the
// oracle Train's step must match bit for bit.
func naiveStep(m *MLP, x []float64, label int, lr, target float64) {
	acts := naiveForward(m, x)
	out := acts[len(acts)-1]
	// dL/dout with L = Σ (out − t)².
	grad := make([]float64, len(out))
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
	for l := len(m.W) - 1; l >= 0; l-- {
		in := acts[l]
		w := m.W[l]
		var next []float64
		if l > 0 {
			next = make([]float64, len(in))
		}
		for i := range w {
			xi := in[i]
			wi := w[i]
			var g float64
			for j := range wi {
				if next != nil {
					g += wi[j] * grad[j]
				}
				wi[j] -= lr * grad[j] * xi
			}
			if next != nil {
				if xi == 0 && g > 0 {
					g = 0 // ReLU gate on the hidden activation
				}
				next[i] = g
			}
		}
		grad = next
	}
}

// sameBits reports the first weight where a and b differ in their bits.
func sameBits(t *testing.T, a, b *MLP) {
	t.Helper()
	for l := range a.W {
		for i := range a.W[l] {
			for j, v := range a.W[l][i] {
				if u := b.W[l][i][j]; math.Float64bits(u) != math.Float64bits(v) {
					t.Fatalf("W[%d][%d][%d] = %v (%#x), naive %v (%#x)", l, i, j, v, math.Float64bits(v), u, math.Float64bits(u))
				}
			}
		}
	}
}

// fuzzNet draws a network and samples from seed: 1–3 layers of width
// 1–60, inputs of which about half are exactly zero, and some units made
// dead by a column of non-positive weights.
func fuzzNet(seed int64, layers int) (*MLP, [][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	dims := make([]int, layers+1)
	for i := range dims {
		dims[i] = 1 + rng.Intn(60)
	}
	m, err := NewMLP(rng, dims)
	if err != nil {
		panic(err)
	}
	for _, w := range m.W {
		for j := range w[0] {
			if rng.Intn(4) == 0 {
				for i := range w {
					if v := w[i][j]; v > 0 {
						w[i][j] = -v // not −0: Train assumes no weight is −0
					}
				}
			}
		}
	}
	xs := make([][]float64, 8)
	labels := make([]int, len(xs))
	for s := range xs {
		x := make([]float64, dims[0])
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = rng.Float64()
			}
		}
		xs[s] = x
		labels[s] = rng.Intn(dims[len(dims)-1])
	}
	return m, xs, labels
}

// FuzzTrainStepVsNaive runs a few SGD steps through Train's step and
// through naiveStep on copies of one network and compares every weight,
// and every Forward activation against naiveForward, bit for bit. The
// learning rate and target are the fuzzer's, so huge, negative, infinite
// and NaN rates reach the step too (the paths where a zero input must
// not skip its row).
func FuzzTrainStepVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(1), 0.05, 1.0)
	f.Add(int64(2), uint8(2), 0.03, 1.0)
	f.Add(int64(3), uint8(3), 0.5, 2.0)
	f.Add(int64(4), uint8(2), 1e300, 1.0)
	f.Add(int64(5), uint8(1), math.Inf(1), 1.0)
	f.Add(int64(6), uint8(2), -0.1, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, layers uint8, lr, target float64) {
		m, xs, labels := fuzzNet(seed, 1+int(layers%3))
		naive := m.Clone()
		ws := newWorkspace(m)
		for s, x := range xs {
			m.step(ws, x, labels[s], lr, target)
			naiveStep(naive, x, labels[s], lr, target)
			sameBits(t, m, naive)
		}
		for _, x := range xs {
			got, want := m.Forward(x), naiveForward(naive, x)
			for l := 1; l < len(got); l++ {
				for j, v := range got[l] {
					if math.Float64bits(v) != math.Float64bits(want[l][j]) {
						t.Fatalf("Forward layer %d output %d = %v, naive %v", l, j, v, want[l][j])
					}
				}
			}
		}
	})
}

// TestTrainMatchesNaive trains three shapes for several epochs at several
// seeds through Train and through naiveStep in the same sample order and
// compares the weights bit for bit.
func TestTrainMatchesNaive(t *testing.T) {
	for _, dims := range [][]int{{16, 24, 4}, {16, 48, 48, 4}, {20, 7, 3}} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ds := SyntheticClusters(rng, 120, dims[0], dims[len(dims)-1], 0.1)
			m, err := NewMLP(rng, dims)
			if err != nil {
				t.Fatal(err)
			}
			naive := m.Clone()
			m.Train(rand.New(rand.NewSource(seed)), ds, TrainOptions{Epochs: 5})
			order := rand.New(rand.NewSource(seed)).Perm(ds.Len())
			for e := 0; e < 5; e++ {
				for _, idx := range order {
					naiveStep(naive, ds.X[idx], ds.Y[idx], 0.05, 1)
				}
			}
			sameBits(t, m, naive)
		}
	}
}
