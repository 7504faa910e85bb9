package xbar_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fpsa"
	"fpsa/internal/xbar"
)

// TestModelOutputsAgreeAcrossBodies runs whole models through the portable
// kernel and quantize bodies: the trained 16-24-4 MLP and a small conv net, deployed
// through fpsa with ideal devices and with 5 % of cells stuck, give the
// same outputs in every execution mode with every AVX2 body switched off
// as with them on. Programming noise (ModeSpikingNoisy) and stuck-high
// cells on live weights put crossbars on the float walk; ideal ones take
// the integer lanes; ModeReference runs the reference kernel and its
// epilogue. The conv net's second convolution reads 288 rows, more than a
// crossbar holds, so remapping cannot steer all its stuck cells away.
func TestModelOutputsAgreeAcrossBodies(t *testing.T) {
	if !xbar.HasAVX2 {
		t.Skip("the CPU has no AVX2: the portable bodies are the only ones")
	}
	ds := fpsa.SyntheticDataset(11, 300, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	mlp, err := fpsa.TrainMLP(11, []int{16, 24, 4}, train, 10)
	if err != nil {
		t.Fatal(err)
	}
	conv, convWeights, convInputs := smallConvNet(t)
	models := []struct {
		name    string
		m       fpsa.Model
		weights fpsa.WeightSource
		inputs  [][]float64
	}{
		{"mlp-16-24-4", mlp.Model(), mlp.WeightSource(), test.X[:24]},
		{"conv", conv, convWeights, convInputs},
	}
	for _, mc := range models {
		var ideal [][]int
		for _, faults := range []struct {
			name string
			opts []fpsa.Option
		}{
			{"ideal", nil},
			{"stuck-5%", []fpsa.Option{fpsa.WithFaultModel(0.05, 3)}},
		} {
			d, err := fpsa.Compile(context.Background(), mc.m, append([]fpsa.Option{fpsa.WithWeightSource(mc.weights)}, faults.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			sn, err := d.NewNet(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []fpsa.ExecMode{fpsa.ModeReference, fpsa.ModeSpiking, fpsa.ModeSpikingNoisy} {
				label := fmt.Sprintf("%s %s %v", mc.name, faults.name, mode)
				outputs := func(avx2 bool) [][]int {
					defer xbar.UseAVX2Bodies(avx2)()
					sn.SetSeed(5)
					out, err := sn.OutputsBatch(mc.inputs, mode)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return out
				}
				portable, avx2 := outputs(false), outputs(true)
				if !reflect.DeepEqual(portable, avx2) {
					t.Errorf("%s: portable bodies %v, AVX2 bodies %v", label, portable, avx2)
				}
				if mode != fpsa.ModeReference {
					continue
				}
				if faults.name == "ideal" {
					ideal = avx2
				} else if mc.name == "conv" && reflect.DeepEqual(ideal, avx2) {
					t.Errorf("%s: stuck cells changed no output; none landed on live weights", label)
				}
			}
		}
	}
}

// smallConvNet is a 1×8×8 conv net — 3×3 convolutions to 32 and then 8
// channels, each with a ReLU, a global average pool and an FC classifier
// to 4 classes — with 16 seeded inputs in [0, 1] and seeded weights in
// [−0.25, 0.75): biased positive, so that spikes reach the output (with
// weights in [−1, 1] every output count is 0).
func smallConvNet(t *testing.T) (fpsa.Model, fpsa.WeightSource, [][]float64) {
	t.Helper()
	const size, wide, narrow, classes = 8, 32, 8, 4
	m, err := fpsa.NewModelBuilder("conv-8", 1, size, size).
		Conv2D(wide, 3, 1, 1).ReLU().
		Conv2D(narrow, 3, 1, 1).ReLU().
		GlobalAvgPool().
		FC(classes).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	matrix := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = rng.Float64() - 0.25
			}
		}
		return w
	}
	layers := m.WeightLayers()
	weights := map[string][][]float64{
		layers[0]: matrix(9, wide),
		layers[1]: matrix(9*wide, narrow),
		layers[2]: matrix(narrow, classes),
	}
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, size*size)
		for k := range inputs[i] {
			inputs[i][k] = rng.Float64()
		}
	}
	return m, func(layer string) [][]float64 { return weights[layer] }, inputs
}
