// Package models provides the paper's seven benchmark networks (Table 3)
// as computational graphs with layer-exact shapes: MLP-500-100 and LeNet
// for MNIST, a reconstructed VGG17 for CIFAR-10, and AlexNet, VGG16,
// GoogLeNet and ResNet-152 for ImageNet. The weight and op totals reproduce
// the published "# of weights" / "# of ops" columns (the test suite pins
// the tolerances; CIFAR-VGG17 has no published layer table and is
// reconstructed to land on the published totals).
package models

import (
	"fmt"
	"sort"

	"fpsa/internal/cgraph"
)

// Names of the benchmark models, in Table 3 order.
const (
	NameMLP       = "MLP-500-100"
	NameLeNet     = "LeNet"
	NameVGG17     = "CIFAR-VGG17"
	NameAlexNet   = "AlexNet"
	NameVGG16     = "VGG16"
	NameGoogLeNet = "GoogLeNet"
	NameResNet152 = "ResNet152"
)

// builders maps model names to constructors.
var builders = map[string]func() *cgraph.Graph{
	NameMLP:       MLP500_100,
	NameLeNet:     LeNet,
	NameVGG17:     CIFARVGG17,
	NameAlexNet:   AlexNet,
	NameVGG16:     VGG16,
	NameGoogLeNet: GoogLeNet,
	NameResNet152: ResNet152,
}

// tableOrder is Table 3's column order.
var tableOrder = []string{
	NameMLP, NameLeNet, NameVGG17, NameAlexNet, NameVGG16, NameGoogLeNet, NameResNet152,
}

// Names returns the benchmark model names in Table 3 order.
func Names() []string { return append([]string(nil), tableOrder...) }

// ByName builds the named benchmark model.
func ByName(name string) (*cgraph.Graph, error) {
	b, ok := builders[name]
	if !ok {
		known := make([]string, 0, len(builders))
		for k := range builders {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("models: unknown model %q (known: %v)", name, known)
	}
	return b(), nil
}

// MLP500_100 is the paper's MLP with two hidden layers of 500 and 100
// neurons on 28×28 MNIST inputs: 443.0K weights, 886.0K ops.
func MLP500_100() *cgraph.Graph {
	g := cgraph.New(NameMLP)
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(784)})
	h1 := g.MustAdd("fc1", cgraph.FC{Out: 500}, in)
	h1 = g.MustAdd("relu1", cgraph.ReLU{}, h1)
	h2 := g.MustAdd("fc2", cgraph.FC{Out: 100}, h1)
	h2 = g.MustAdd("relu2", cgraph.ReLU{}, h2)
	out := g.MustAdd("fc3", cgraph.FC{Out: 10}, h2)
	g.MustAdd("softmax", cgraph.Softmax{}, out)
	return g
}

// LeNet is the Caffe LeNet variant the paper benchmarks (20/50 conv
// filters, 500-unit FC): 430.5K weights, 4.6M ops.
func LeNet() *cgraph.Graph {
	g := cgraph.New(NameLeNet)
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 1, H: 28, W: 28}})
	c1 := g.MustAdd("conv1", cgraph.Conv2D{OutC: 20, Kernel: 5, Stride: 1}, in)
	p1 := g.MustAdd("pool1", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, c1)
	c2 := g.MustAdd("conv2", cgraph.Conv2D{OutC: 50, Kernel: 5, Stride: 1}, p1)
	p2 := g.MustAdd("pool2", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, c2)
	fl := g.MustAdd("flatten", cgraph.Flatten{}, p2)
	f1 := g.MustAdd("fc1", cgraph.FC{Out: 500}, fl)
	r1 := g.MustAdd("relu1", cgraph.ReLU{}, f1)
	f2 := g.MustAdd("fc2", cgraph.FC{Out: 10}, r1)
	g.MustAdd("softmax", cgraph.Softmax{}, f2)
	return g
}

// CIFARVGG17 is the reconstructed 17-layer VGG-style CIFAR-10 network
// (§"Known deviations" in DESIGN.md): 16 weight layers of 3×3 convolutions
// in three resolution blocks plus a classifier FC, tuned to the published
// 1.1M weights / 333.4M ops (measured: 1.063M / 345.3M, within 4%).
func CIFARVGG17() *cgraph.Graph {
	const (
		c      = 36  // base width
		blockC = 152 // third-block width (tuned; see doc comment)
	)
	g := cgraph.New(NameVGG17)
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 3, H: 32, W: 32}})
	conv := func(name string, outC int, in *cgraph.Node) *cgraph.Node {
		n := g.MustAdd(name, cgraph.Conv2D{OutC: outC, Kernel: 3, Stride: 1, Pad: 1}, in)
		return g.MustAdd(name+"_relu", cgraph.ReLU{}, n)
	}
	pool := func(name string, in *cgraph.Node) *cgraph.Node {
		return g.MustAdd(name, cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, in)
	}
	// Block A: 6 convs at 32×32.
	x = conv("conv1_1", c, x)
	for i := 2; i <= 6; i++ {
		x = conv(fmt.Sprintf("conv1_%d", i), c, x)
	}
	x = pool("pool1", x)
	// Block B: 6 convs at 16×16.
	x = conv("conv2_1", 2*c, x)
	for i := 2; i <= 6; i++ {
		x = conv(fmt.Sprintf("conv2_%d", i), 2*c, x)
	}
	x = pool("pool2", x)
	// Block C: 4 convs at 8×8.
	x = conv("conv3_1", blockC, x)
	for i := 2; i <= 4; i++ {
		x = conv(fmt.Sprintf("conv3_%d", i), blockC, x)
	}
	x = pool("pool3", x)
	fl := g.MustAdd("flatten", cgraph.Flatten{}, x)
	fc := g.MustAdd("fc", cgraph.FC{Out: 10}, fl)
	g.MustAdd("softmax", cgraph.Softmax{}, fc)
	return g
}

// AlexNet is the original grouped AlexNet on 227×227 ImageNet inputs:
// 60.6M weights, 1.4G ops.
func AlexNet() *cgraph.Graph {
	g := cgraph.New(NameAlexNet)
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 3, H: 227, W: 227}})
	x = g.MustAdd("conv1", cgraph.Conv2D{OutC: 96, Kernel: 11, Stride: 4}, x)
	x = g.MustAdd("relu1", cgraph.ReLU{}, x)
	x = g.MustAdd("lrn1", cgraph.LRN{}, x)
	x = g.MustAdd("pool1", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 3, Stride: 2}, x)
	x = g.MustAdd("conv2", cgraph.Conv2D{OutC: 256, Kernel: 5, Stride: 1, Pad: 2, Groups: 2}, x)
	x = g.MustAdd("relu2", cgraph.ReLU{}, x)
	x = g.MustAdd("lrn2", cgraph.LRN{}, x)
	x = g.MustAdd("pool2", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 3, Stride: 2}, x)
	x = g.MustAdd("conv3", cgraph.Conv2D{OutC: 384, Kernel: 3, Stride: 1, Pad: 1}, x)
	x = g.MustAdd("relu3", cgraph.ReLU{}, x)
	x = g.MustAdd("conv4", cgraph.Conv2D{OutC: 384, Kernel: 3, Stride: 1, Pad: 1, Groups: 2}, x)
	x = g.MustAdd("relu4", cgraph.ReLU{}, x)
	x = g.MustAdd("conv5", cgraph.Conv2D{OutC: 256, Kernel: 3, Stride: 1, Pad: 1, Groups: 2}, x)
	x = g.MustAdd("relu5", cgraph.ReLU{}, x)
	x = g.MustAdd("pool5", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 3, Stride: 2}, x)
	x = g.MustAdd("flatten", cgraph.Flatten{}, x)
	x = g.MustAdd("fc6", cgraph.FC{Out: 4096}, x)
	x = g.MustAdd("relu6", cgraph.ReLU{}, x)
	x = g.MustAdd("drop6", cgraph.Dropout{}, x)
	x = g.MustAdd("fc7", cgraph.FC{Out: 4096}, x)
	x = g.MustAdd("relu7", cgraph.ReLU{}, x)
	x = g.MustAdd("drop7", cgraph.Dropout{}, x)
	x = g.MustAdd("fc8", cgraph.FC{Out: 1000}, x)
	g.MustAdd("softmax", cgraph.Softmax{}, x)
	return g
}

// VGG16 is the standard configuration-D VGG on 224×224 ImageNet inputs:
// 138.3M weights, 30.9G ops.
func VGG16() *cgraph.Graph {
	g := cgraph.New(NameVGG16)
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 3, H: 224, W: 224}})
	conv := func(name string, outC int, in *cgraph.Node) *cgraph.Node {
		n := g.MustAdd(name, cgraph.Conv2D{OutC: outC, Kernel: 3, Stride: 1, Pad: 1}, in)
		return g.MustAdd(name+"_relu", cgraph.ReLU{}, n)
	}
	pool := func(name string, in *cgraph.Node) *cgraph.Node {
		return g.MustAdd(name, cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, in)
	}
	blocks := []struct {
		name  string
		outC  int
		convs int
	}{
		{"conv1", 64, 2}, {"conv2", 128, 2}, {"conv3", 256, 3}, {"conv4", 512, 3}, {"conv5", 512, 3},
	}
	for _, b := range blocks {
		for i := 1; i <= b.convs; i++ {
			x = conv(fmt.Sprintf("%s_%d", b.name, i), b.outC, x)
		}
		x = pool(b.name+"_pool", x)
	}
	x = g.MustAdd("flatten", cgraph.Flatten{}, x)
	x = g.MustAdd("fc6", cgraph.FC{Out: 4096}, x)
	x = g.MustAdd("relu6", cgraph.ReLU{}, x)
	x = g.MustAdd("fc7", cgraph.FC{Out: 4096}, x)
	x = g.MustAdd("relu7", cgraph.ReLU{}, x)
	x = g.MustAdd("fc8", cgraph.FC{Out: 1000}, x)
	g.MustAdd("softmax", cgraph.Softmax{}, x)
	return g
}
