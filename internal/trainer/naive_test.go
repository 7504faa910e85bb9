package trainer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/hostcpu"
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
func sameBits(t *testing.T, what string, a, b *MLP) {
	t.Helper()
	for l := range a.W {
		for i := range a.W[l] {
			for j, v := range a.W[l][i] {
				if u := b.W[l][i][j]; math.Float64bits(u) != math.Float64bits(v) {
					t.Fatalf("%s: W[%d][%d][%d] = %v (%#x), naive %v (%#x)", what, l, i, j, v, math.Float64bits(v), u, math.Float64bits(u))
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

// trainBody is one body of the trainer's kernels: portable Go, or AVX2.
type trainBody struct {
	name string
	avx2 bool
}

// trainBodies lists the bodies this CPU can run: the portable one always,
// the AVX2 one where hostcpu.AVX2 holds.
func trainBodies() []trainBody {
	bodies := []trainBody{{"portable", false}}
	if hostcpu.AVX2 {
		bodies = append(bodies, trainBody{"avx2", true})
	}
	return bodies
}

// useTrainBody selects a body until the returned func restores the
// previous one. No test in this package runs in parallel, so nothing else
// reads trainAVX2 meanwhile.
func useTrainBody(avx2 bool) (restore func()) {
	old := trainAVX2
	trainAVX2 = avx2
	return func() { trainAVX2 = old }
}

// FuzzTrainStepVsNaive runs a few SGD steps through Train's step and
// through naiveStep on copies of one network and compares every weight,
// and every Forward activation against naiveForward, bit for bit, under
// each body the CPU has. The learning rate and target are the fuzzer's, so
// huge, negative, infinite and NaN rates reach the step too (the paths
// where a zero input must not skip its row).
func FuzzTrainStepVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(1), 0.05, 1.0)
	f.Add(int64(2), uint8(2), 0.03, 1.0)
	f.Add(int64(3), uint8(3), 0.5, 2.0)
	f.Add(int64(4), uint8(2), 1e300, 1.0)
	f.Add(int64(5), uint8(1), math.Inf(1), 1.0)
	f.Add(int64(6), uint8(2), -0.1, 0.0)
	f.Add(int64(7), uint8(3), 5.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, layers uint8, lr, target float64) {
		for _, body := range trainBodies() {
			func() {
				defer useTrainBody(body.avx2)()
				m, xs, labels := fuzzNet(seed, 1+int(layers%3))
				naive := m.Clone()
				ws := newWorkspace(m)
				for s, x := range xs {
					ws.step(x, labels[s], lr, target)
					naiveStep(naive, x, labels[s], lr, target)
					ws.unpack(m)
					sameBits(t, body.name, m, naive)
				}
				for _, x := range xs {
					got, want := m.Forward(x), naiveForward(naive, x)
					for l := 1; l < len(got); l++ {
						for j, v := range got[l] {
							if math.Float64bits(v) != math.Float64bits(want[l][j]) {
								t.Fatalf("%s: Forward layer %d output %d = %v, naive %v", body.name, l, j, v, want[l][j])
							}
						}
					}
				}
			}()
		}
	})
}

// TestTrainMatchesNaive trains several shapes for several epochs at
// several seeds through Train and through naiveStep in the same sample
// order, under each body the CPU has, and compares the weights bit for
// bit. The shapes leave row and column tails after blocks of four; the
// rates past 1 leave every weight NaN after the five epochs.
func TestTrainMatchesNaive(t *testing.T) {
	type run struct {
		dims []int
		lr   float64
	}
	var runs []run
	for _, dims := range [][]int{{16, 24, 4}, {16, 48, 48, 4}, {20, 7, 3}, {20, 8, 4}, {16, 60, 36, 12}} {
		runs = append(runs, run{dims, 0.05})
	}
	for _, lr := range []float64{math.Inf(1), 1e300, 5} {
		runs = append(runs, run{[]int{16, 60, 36, 12}, lr})
	}
	for _, body := range trainBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer useTrainBody(body.avx2)()
			for _, r := range runs {
				for seed := int64(1); seed <= 5; seed++ {
					rng := rand.New(rand.NewSource(seed))
					ds := SyntheticClusters(rng, 120, r.dims[0], r.dims[len(r.dims)-1], 0.1)
					m, err := NewMLP(rng, r.dims)
					if err != nil {
						t.Fatal(err)
					}
					naive := m.Clone()
					m.Train(rand.New(rand.NewSource(seed)), ds, TrainOptions{Epochs: 5, LR: r.lr})
					order := rand.New(rand.NewSource(seed)).Perm(ds.Len())
					for e := 0; e < 5; e++ {
						for _, idx := range order {
							naiveStep(naive, ds.X[idx], ds.Y[idx], r.lr, 1)
						}
					}
					sameBits(t, fmt.Sprintf("%v at rate %v, seed %d", r.dims, r.lr, seed), m, naive)
				}
			}
		})
	}
}
