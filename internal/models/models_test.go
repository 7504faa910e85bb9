package models

import (
	"math"
	"testing"

	"fpsa/internal/cgraph"
)

// table3 pins the published "# of weights" and "# of ops" columns and the
// tolerance we hold each reconstruction to (CIFAR-VGG17 has no published
// layer table; ResNet-152's published weight count appears to exclude the
// classifier FC — see EXPERIMENTS.md).
var table3 = []struct {
	name       string
	weights    float64
	ops        float64
	weightsTol float64
	opsTol     float64
}{
	{NameMLP, 443.0e3, 886.0e3, 0.001, 0.001},
	{NameLeNet, 430.5e3, 4.6e6, 0.001, 0.005},
	{NameVGG17, 1.1e6, 333.4e6, 0.04, 0.04},
	{NameAlexNet, 60.6e6, 1.4e9, 0.01, 0.04},
	{NameVGG16, 138.3e6, 30.9e9, 0.001, 0.002},
	{NameGoogLeNet, 7.0e6, 3.2e9, 0.005, 0.015},
	{NameResNet152, 57.7e6, 22.6e9, 0.05, 0.005},
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func TestTable3WeightAndOpCounts(t *testing.T) {
	for _, tc := range table3 {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			s := g.Summary()
			if e := relErr(float64(s.Weights), tc.weights); e > tc.weightsTol {
				t.Errorf("weights = %d, published %.4g (rel err %.3f > %.3f)", s.Weights, tc.weights, e, tc.weightsTol)
			}
			if e := relErr(float64(s.Ops), tc.ops); e > tc.opsTol {
				t.Errorf("ops = %d, published %.4g (rel err %.3f > %.3f)", s.Ops, tc.ops, e, tc.opsTol)
			}
		})
	}
}

func TestAllGraphsValidate(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		outs := g.Outputs()
		if len(outs) != 1 {
			t.Errorf("%s: %d outputs, want 1", g.Name, len(outs))
		}
		if len(outs) == 1 && outs[0].OutShape.Elems() != 10 && outs[0].OutShape.Elems() != 1000 {
			t.Errorf("%s: classifier width %d", g.Name, outs[0].OutShape.Elems())
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NotANet"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestNamesOrderMatchesTable3(t *testing.T) {
	names := Names()
	want := []string{NameMLP, NameLeNet, NameVGG17, NameAlexNet, NameVGG16, NameGoogLeNet, NameResNet152}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestVGG16LayerShapes(t *testing.T) {
	g := VGG16()
	shapes := map[string]cgraph.Shape{
		"conv1_2": {C: 64, H: 224, W: 224},
		"conv3_3": {C: 256, H: 56, W: 56},
		"conv5_3": {C: 512, H: 14, W: 14},
		"fc6":     cgraph.Vec(4096),
		"fc8":     cgraph.Vec(1000),
	}
	found := 0
	for _, n := range g.Nodes() {
		if want, ok := shapes[n.Name]; ok {
			found++
			if n.OutShape != want {
				t.Errorf("%s shape = %v, want %v", n.Name, n.OutShape, want)
			}
		}
	}
	if found != len(shapes) {
		t.Errorf("found %d/%d probe layers", found, len(shapes))
	}
}

func TestAlexNetConv1Shape(t *testing.T) {
	g := AlexNet()
	for _, n := range g.Nodes() {
		if n.Name == "conv1" {
			if n.OutShape != (cgraph.Shape{C: 96, H: 55, W: 55}) {
				t.Errorf("conv1 shape = %v, want 96x55x55", n.OutShape)
			}
			return
		}
	}
	t.Fatal("conv1 not found")
}

func TestGoogLeNetInceptionWidths(t *testing.T) {
	g := GoogLeNet()
	widths := map[string]int{
		"inc3a_concat": 256,
		"inc3b_concat": 480,
		"inc4e_concat": 832,
		"inc5b_concat": 1024,
	}
	found := 0
	for _, n := range g.Nodes() {
		if want, ok := widths[n.Name]; ok {
			found++
			if n.OutShape.C != want {
				t.Errorf("%s channels = %d, want %d", n.Name, n.OutShape.C, want)
			}
		}
	}
	if found != len(widths) {
		t.Errorf("found %d/%d inception outputs", found, len(widths))
	}
}

func TestResNet152Structure(t *testing.T) {
	g := ResNet152()
	// 1 stem conv + 3×(3) + 8×3 + 36×3 + 3×3 bottleneck convs + 4
	// projections + 1 FC = 156 weight layers ("152" counts conv+fc).
	weightLayers := 0
	for _, n := range g.Nodes() {
		switch n.Op.(type) {
		case cgraph.Conv2D, cgraph.FC:
			weightLayers++
		}
	}
	if weightLayers != 156 {
		t.Errorf("weight layers = %d, want 156 (152 named + 4 projections)", weightLayers)
	}
	// Final feature map before global pooling is 2048×7×7.
	for _, n := range g.Nodes() {
		if n.Name == "res5_3_relu" {
			if n.OutShape != (cgraph.Shape{C: 2048, H: 7, W: 7}) {
				t.Errorf("res5_3 out = %v, want 2048x7x7", n.OutShape)
			}
		}
	}
}

func TestGraphsAreIndependent(t *testing.T) {
	a, b := VGG16(), VGG16()
	if a.Nodes()[0] == b.Nodes()[0] {
		t.Error("two builds share nodes")
	}
}
