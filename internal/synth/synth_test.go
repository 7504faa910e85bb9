package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/models"
)

func TestSynthesizeMLPShape(t *testing.T) {
	co, err := Synthesize(models.MLP500_100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// fc1 784×500 → 4×2 tiles; fc2 500×100 → 2 tiles; fc3 100×10 → 1:
	// 11 tiles, no reductions (SMB counters merge partials in the
	// shape-only accounting). All groups reuse=1.
	if co.MaxReuse() != 1 {
		t.Errorf("MLP MaxReuse = %d, want 1 (no weight sharing)", co.MaxReuse())
	}
	kinds := co.GroupsByKind()
	if kinds[coreop.KindCompute] != 11 {
		t.Errorf("compute groups = %d, want 11", kinds[coreop.KindCompute])
	}
	if kinds[coreop.KindReduce] != 0 {
		t.Errorf("reduce groups = %d, want 0 (SMB-counter merged)", kinds[coreop.KindReduce])
	}
	if err := co.Validate(256, 256); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeVGG16(t *testing.T) {
	co, err := Synthesize(models.VGG16(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Minimum PEs must at least hold all weights: 138.3M / 65536 ≈ 2111.
	if got := len(co.Groups); got < 2111 {
		t.Errorf("VGG16 groups = %d, want ≥2111 (weight capacity)", got)
	}
	// conv1_1's reuse degree is the largest: 224×224 = 50176.
	if got := co.MaxReuse(); got != 224*224 {
		t.Errorf("VGG16 MaxReuse = %d, want 50176", got)
	}
}

func TestSynthesizeGoogLeNetPoolingDominates(t *testing.T) {
	// §7.3: after synthesis the pooling operations occupy 67.2% of
	// GoogLeNet's PEs. Our pairwise-max lowering must reproduce the
	// effect: pooling structures dominate the group count.
	co, err := Synthesize(models.GoogLeNet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	kinds := co.GroupsByKind()
	total := 0
	for _, n := range kinds {
		total += n
	}
	frac := float64(kinds[coreop.KindPool]) / float64(total)
	if frac < 0.4 {
		t.Errorf("pool groups fraction = %.2f (%v of %d), want ≥0.4 (paper: 0.672)", frac, kinds[coreop.KindPool], total)
	}
	t.Logf("GoogLeNet pool-PE fraction: %.3f (paper reports 0.672)", frac)
}

func TestSynthesizeAllZooModels(t *testing.T) {
	for _, name := range models.Names() {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Synthesize(g, DefaultOptions())
		if err != nil {
			t.Errorf("%s: %v", g.Name, err)
			continue
		}
		if err := co.Validate(256, 256); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if len(co.Groups) == 0 {
			t.Errorf("%s: no groups", g.Name)
		}
	}
}

func TestSynthesizeGroupedConvSplitsGroups(t *testing.T) {
	g := cgraph.New("grouped")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 8, H: 6, W: 6}})
	g.MustAdd("conv", cgraph.Conv2D{OutC: 8, Kernel: 3, Stride: 1, Pad: 1, Groups: 2}, in)
	co, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Groups) != 2 {
		t.Fatalf("grouped conv produced %d groups, want 2", len(co.Groups))
	}
	for _, grp := range co.Groups {
		if grp.Rows != 9*4 || grp.Cols != 4 {
			t.Errorf("group %s footprint %dx%d, want 36x4", grp.Name, grp.Rows, grp.Cols)
		}
		if grp.Reuse != 36 {
			t.Errorf("group %s reuse %d, want 36", grp.Name, grp.Reuse)
		}
	}
}

func TestSynthesizeRowSplitFootprints(t *testing.T) {
	// Shape-only: a 600×300 FC ceil-tiles into 3 row tiles × 2 column
	// tiles with no reduction groups (SMB counters merge partials).
	g := cgraph.New("split")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(600)})
	g.MustAdd("fc", cgraph.FC{Out: 300}, in)
	co, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Groups) != 6 {
		t.Fatalf("groups = %d, want 6 (3×2 ceil tiling)", len(co.Groups))
	}
	for _, grp := range co.Groups {
		if grp.Kind != coreop.KindCompute {
			t.Errorf("group %s kind = %v, want compute", grp.Name, grp.Kind)
		}
	}
}

func TestFunctionalRowSplitKeepsExactReductions(t *testing.T) {
	// The functional path must keep explicit ± pairs and reduction
	// core-ops: exactness over the shape-only accounting.
	g := cgraph.New("split")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(600)})
	g.MustAdd("fc", cgraph.FC{Out: 300}, in)
	w := make([][]float64, 600)
	for i := range w {
		w[i] = make([]float64, 300)
	}
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return w }
	co, _, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := co.GroupsByKind()
	if kinds[coreop.KindReduce] == 0 {
		t.Error("functional split produced no reduction groups")
	}
	for _, grp := range co.Groups {
		if grp.Kind == coreop.KindCompute && grp.Cols%2 != 0 {
			t.Errorf("functional split tile %s has odd column count %d", grp.Name, grp.Cols)
		}
	}
}

func TestSynthesizeMaxPoolTree(t *testing.T) {
	// A 2×2 max pool needs K²−1 = 3 pairwise maxes = 6 core-op groups
	// per channel pack.
	g := cgraph.New("pool")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 16, H: 8, W: 8}})
	g.MustAdd("pool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, in)
	co, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Groups) != 6 {
		t.Fatalf("2x2 max pool groups = %d, want 6", len(co.Groups))
	}
	for _, grp := range co.Groups {
		if grp.Kind != coreop.KindPool {
			t.Errorf("group %s kind %v", grp.Name, grp.Kind)
		}
		if grp.Reuse != 16 {
			t.Errorf("group %s reuse %d, want 16", grp.Name, grp.Reuse)
		}
		// Block-diagonal: tiny useful weights vs footprint.
		if grp.UsefulWeights != 2*16 {
			t.Errorf("group %s useful = %d, want 32", grp.Name, grp.UsefulWeights)
		}
	}
}

func TestSynthesizeAvgPoolExact(t *testing.T) {
	g := cgraph.New("avg")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 64, H: 4, W: 4}})
	g.MustAdd("gap", cgraph.GlobalAvgPool{}, in)
	co, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 16-value window: pack = 256/16 = 16 channels → 4 groups.
	if len(co.Groups) != 4 {
		t.Fatalf("GAP groups = %d, want 4", len(co.Groups))
	}
	for _, grp := range co.Groups {
		if grp.Rows != 256 || grp.Cols != 16 {
			t.Errorf("group %s footprint %dx%d, want 256x16", grp.Name, grp.Rows, grp.Cols)
		}
	}
}

func TestSynthesizeResNetAddGroups(t *testing.T) {
	g := cgraph.New("res")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 256, H: 7, W: 7}})
	a := g.MustAdd("a", cgraph.Conv2D{OutC: 256, Kernel: 1, Stride: 1}, in)
	sum := g.MustAdd("sum", cgraph.Add{}, a, in)
	g.MustAdd("relu", cgraph.ReLU{}, sum)
	co, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var adds int
	for _, grp := range co.Groups {
		if grp.Kind == coreop.KindElementwise {
			adds++
			if grp.Reuse != 49 {
				t.Errorf("add group reuse %d, want 49", grp.Reuse)
			}
		}
	}
	if adds != 2 {
		t.Errorf("add groups = %d, want 2 (256 channels / 128 pack)", adds)
	}
}

func TestSynthesizeDepsAreTopological(t *testing.T) {
	for _, name := range []string{models.NameLeNet, models.NameGoogLeNet} {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Synthesize(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range co.Groups {
			for _, d := range grp.Deps {
				if d >= grp.ID {
					t.Fatalf("%s: group %s dep %d not earlier", name, grp.Name, d)
				}
			}
		}
	}
}

func TestSynthesizeErrorsOnMissingWeights(t *testing.T) {
	g := cgraph.New("g")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(8)})
	g.MustAdd("fc", cgraph.FC{Out: 4}, in)
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	_, err := Synthesize(g, opts)
	if err == nil || !strings.Contains(err.Error(), "missing weights") {
		t.Errorf("err = %v, want missing-weights", err)
	}
}

// pinnedConvNet is TestProgramPinned's conv fixture: a row-split 3×3 conv
// on 32 channels, ReLU, a 2×2 max pool, then a 2×2 average pool and a
// second 2×2 max pool joined by a residual add, global average pooling
// and an FC layer.
func pinnedConvNet(rng *rand.Rand) (*cgraph.Graph, func(string) [][]float64) {
	g := cgraph.New("pinned-conv")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 32, H: 8, W: 8}})
	c := g.MustAdd("conv", cgraph.Conv2D{OutC: 16, Kernel: 3, Stride: 1, Pad: 1}, in)
	r := g.MustAdd("relu", cgraph.ReLU{}, c)
	p := g.MustAdd("max1", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, r)
	a := g.MustAdd("avg", cgraph.Pool{PoolKind: cgraph.AvgPoolKind, Kernel: 2, Stride: 2}, p)
	m := g.MustAdd("max2", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, p)
	sum := g.MustAdd("add", cgraph.Add{}, a, m)
	gap := g.MustAdd("gap", cgraph.GlobalAvgPool{}, sum)
	g.MustAdd("fc", cgraph.FC{Out: 10}, gap)
	mk := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = (rng.Float64()*2 - 1) / float64(rows)
			}
		}
		return w
	}
	weights := map[string][][]float64{"conv": mk(288, 16), "fc": mk(16, 10)}
	return g, func(layer string) [][]float64 { return weights[layer] }
}

// TestProgramPinned pins functional synthesis: every stage's group and
// input refs, the output refs and input size, and every group's layer,
// kind, footprint, reuse, useful weights, weights and η. FC-only programs
// pin their groups' Deps too. Group names are not pinned, nor the conv
// program's Deps: the executor, PartitionStages and the bench walker read
// neither. The digests are never re-recorded to make a change pass; a
// refactor of the synthesizer must keep them.
func TestProgramPinned(t *testing.T) {
	mlp := func(seed int64, dims ...int) func() (*cgraph.Graph, func(string) [][]float64) {
		return func() (*cgraph.Graph, func(string) [][]float64) {
			return buildTestMLP(rand.New(rand.NewSource(seed)), dims)
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*cgraph.Graph, func(string) [][]float64)
		deps  bool
		want  string
	}{
		{"mlp-16-8-4", mlp(801, 16, 8, 4), true, "2d959bfaa8ad58d85fd1a683d6af0d6a6fd88cdc19544e30aba1038b67e6815b"},
		{"row-split-600-300", mlp(802, 600, 300), true, "844506c4155ad1905d8af4cd490fb445ce5f830f410d3e8d03ab4bef6c39030a"},
		{"col-split-20-700", mlp(803, 20, 700), true, "53dfa1f70fb51b6c81cbdbbe7c38772103e1ce34a6d4c867cf59a542ab7560aa"},
		{"mlp-784-500-100-10", mlp(804, 784, 500, 100, 10), true, "5dd52592e61042b6c5fc7ee705818978300ddf6033cb86feac5161f387495050"},
		{"conv-pool-add-gap-fc", func() (*cgraph.Graph, func(string) [][]float64) {
			return pinnedConvNet(rand.New(rand.NewSource(805)))
		}, false, "6f9f4ab2fb7faaf62e3b1f21bd8545284ee5d97c692a2b2970da20c53d301e6e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ws := tc.build()
			opts := DefaultOptions()
			opts.Weights = ws
			_, prog, err := Compile(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, st := range prog.Stages {
				fmt.Fprintln(h, "stage", st.GroupID, st.InRefs)
			}
			fmt.Fprintln(h, "out", prog.OutputRefs, prog.InputSize)
			for _, grp := range prog.Graph.Groups {
				fmt.Fprintln(h, "group", grp.ID, grp.Layer, grp.Kind, grp.Rows, grp.Cols,
					grp.Reuse, grp.UsefulWeights, grp.Weights, grp.Eta)
				if tc.deps {
					fmt.Fprintln(h, "deps", grp.Deps)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("program digest %s, want %s (%d stages, %d groups)",
					got, tc.want, len(prog.Stages), len(prog.Graph.Groups))
			}
		})
	}
}
