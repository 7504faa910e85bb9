package synth

import (
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/cgraph"
)

// convNet builds input→conv(+relu) with random weights and returns the
// program plus the raw float weights ([K²Cin][OutC], (c,ky,kx) rows).
func convNet(t *testing.T, seed int64, inC, h, w, outC, k, stride, pad int) (*Program, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := cgraph.New("conv")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: inC, H: h, W: w}})
	c := g.MustAdd("conv", cgraph.Conv2D{OutC: outC, Kernel: k, Stride: stride, Pad: pad}, in)
	g.MustAdd("relu", cgraph.ReLU{}, c)
	rows := k * k * inC
	weights := make([][]float64, rows)
	for r := range weights {
		weights[r] = make([]float64, outC)
		for j := range weights[r] {
			weights[r][j] = (rng.Float64()*2 - 1) / float64(rows)
		}
	}
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return weights }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog, weights
}

// directConv computes the convolution independently on the program's own
// quantized weights and η (plain loops, no stages), returning CHW counts.
func directConv(prog *Program, input []int, inC, h, w, outC, k, stride, pad, outH, outW int) []float64 {
	// Recover the quantized weights and eta from the first (and only)
	// compute group.
	grp := prog.Graph.Groups[0]
	out := make([]float64, outC*outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for oc := 0; oc < outC; oc++ {
				var acc float64
				for c := 0; c < inC; c++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							row := (c*k+ky)*k + kx
							acc += float64(grp.Weights[row][oc]) * float64(input[(c*h+iy)*w+ix])
						}
					}
				}
				v := acc / grp.Eta
				if v < 0 {
					v = 0
				}
				out[(oc*outH+oy)*outW+ox] = v
			}
		}
	}
	return out
}

func TestConvExactMatchesDirectConvolution(t *testing.T) {
	const inC, h, w, outC, k = 2, 5, 5, 3, 3
	prog, _ := convNet(t, 61, inC, h, w, outC, k, 1, 1)
	rng := rand.New(rand.NewSource(62))
	window := prog.Params.SamplingWindow()
	input := make([]int, inC*h*w)
	for i := range input {
		input[i] = rng.Intn(window + 1)
	}
	got, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want := directConv(prog, input, inC, h, w, outC, k, 1, 1, 5, 5)
	if len(got) != len(want) {
		t.Fatalf("outputs %d, want %d", len(got), len(want))
	}
	for i := range got {
		wf := math.Min(want[i], float64(window))
		if math.Abs(float64(got[i])-wf) > 2 {
			t.Errorf("out[%d] = %d, direct %.2f", i, got[i], wf)
		}
	}
}

func TestConvExactStrideAndPadding(t *testing.T) {
	prog, _ := convNet(t, 63, 1, 6, 6, 2, 3, 2, 1)
	rng := rand.New(rand.NewSource(64))
	window := prog.Params.SamplingWindow()
	input := make([]int, 36)
	for i := range input {
		input[i] = rng.Intn(window + 1)
	}
	got, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	want := directConv(prog, input, 1, 6, 6, 2, 3, 2, 1, 3, 3)
	for i := range got {
		wf := math.Min(want[i], float64(window))
		if math.Abs(float64(got[i])-wf) > 2 {
			t.Errorf("out[%d] = %d, direct %.2f", i, got[i], wf)
		}
	}
}

func TestConvSharedGroupsAcrossPositions(t *testing.T) {
	// A conv layer with 25 positions must create a constant number of
	// weight groups (tiles), not per-position copies, with reuse
	// matching the position count.
	prog, _ := convNet(t, 65, 2, 5, 5, 3, 3, 1, 1)
	if n := len(prog.Graph.Groups); n != 1 {
		t.Fatalf("groups = %d, want 1 (18x3 fits one crossbar)", n)
	}
	if r := prog.Graph.Groups[0].Reuse; r != 25 {
		t.Errorf("reuse = %d, want 25", r)
	}
	if len(prog.Stages) != 25 {
		t.Errorf("stages = %d, want 25 (one per position)", len(prog.Stages))
	}
}

func TestMaxPoolExactComputesMax(t *testing.T) {
	g := cgraph.New("pool")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 3, H: 4, W: 4}})
	g.MustAdd("pool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, in)
	// A weight-free graph still needs the Weights option to select the
	// functional path.
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	window := prog.Params.SamplingWindow()
	input := make([]int, 48)
	for i := range input {
		input[i] = rng.Intn(window + 1)
	}
	got, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	// Independent max pooling.
	idx := func(c, y, x int) int { return (c*4+y)*4 + x }
	oi := 0
	for c := 0; c < 3; c++ {
		for oy := 0; oy < 2; oy++ {
			for ox := 0; ox < 2; ox++ {
				max := 0
				for ky := 0; ky < 2; ky++ {
					for kx := 0; kx < 2; kx++ {
						if v := input[idx(c, 2*oy+ky, 2*ox+kx)]; v > max {
							max = v
						}
					}
				}
				if got[oi] != max {
					t.Errorf("pool out[%d] = %d, want %d", oi, got[oi], max)
				}
				oi++
			}
		}
	}
}

func TestGlobalAvgPoolExact(t *testing.T) {
	g := cgraph.New("gap")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 2, H: 3, W: 3}})
	g.MustAdd("gap", cgraph.GlobalAvgPool{}, in)
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	input := []int{9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 18, 0, 18, 0, 18, 0, 18, 0}
	got, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0 mean = 9; channel 1 mean = 8 (72/9).
	if got[0] < 8 || got[0] > 9 {
		t.Errorf("gap[0] = %d, want ~9", got[0])
	}
	if got[1] < 7 || got[1] > 8 {
		t.Errorf("gap[1] = %d, want ~8", got[1])
	}
}

func TestResidualAddExact(t *testing.T) {
	g := cgraph.New("res")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 2, H: 2, W: 2}})
	sum := g.MustAdd("sum", cgraph.Add{}, in, in)
	g.MustAdd("relu", cgraph.ReLU{}, sum)
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	input := []int{1, 2, 3, 4, 5, 6, 7, 8}
	got, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range input {
		if got[i] != 2*v {
			t.Errorf("add out[%d] = %d, want %d", i, got[i], 2*v)
		}
	}
}

func TestCNNEndToEndSpiking(t *testing.T) {
	// conv → relu → maxpool → gap → fc: the full structural vocabulary
	// in one program; spiking execution tracks the reference within a
	// few counts despite the six-stage depth.
	rng := rand.New(rand.NewSource(67))
	g := cgraph.New("cnn")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 1, H: 8, W: 8}})
	c1 := g.MustAdd("conv1", cgraph.Conv2D{OutC: 4, Kernel: 3, Stride: 1, Pad: 1}, in)
	r1 := g.MustAdd("relu1", cgraph.ReLU{}, c1)
	p1 := g.MustAdd("pool1", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, r1)
	gap := g.MustAdd("gap", cgraph.GlobalAvgPool{}, p1)
	fc := g.MustAdd("fc", cgraph.FC{Out: 3}, gap)
	g.MustAdd("relu2", cgraph.ReLU{}, fc)

	weights := map[string][][]float64{}
	mk := func(rows, cols int, scale float64) [][]float64 {
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) * scale
			}
		}
		return w
	}
	weights["conv1"] = mk(9, 4, 0.3)
	weights["fc"] = mk(4, 3, 0.5)
	opts := DefaultOptions()
	opts.Weights = func(l string) [][]float64 { return weights[l] }
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := opts.Params.SamplingWindow()
	input := make([]int, 64)
	for i := range input {
		input[i] = rng.Intn(window + 1)
	}
	ref, err := prog.Run(input, RunOptions{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	spiked, err := prog.Run(input, RunOptions{Mode: ModeSpiking})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if d := spiked[i] - ref[i]; d < -6 || d > 6 {
			t.Errorf("out[%d]: spiking %d vs reference %d", i, spiked[i], ref[i])
		}
	}
}

func TestFunctionalLRNUnsupported(t *testing.T) {
	g := cgraph.New("lrn")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 4, H: 2, W: 2}})
	g.MustAdd("lrn", cgraph.LRN{}, in)
	opts := DefaultOptions()
	opts.Weights = func(string) [][]float64 { return nil }
	if _, _, err := Compile(g, opts); err == nil {
		t.Error("functional LRN accepted")
	}
}

// columnDrives returns a signed integer tile's largest per-polarity column
// sum — the most any neuron of it can be driven by in one cycle — and the
// largest number of nonzero rows in a column.
func columnDrives(m [][]int) (drive float64, support int) {
	for j := range m[0] {
		pos, neg, rows := 0, 0, 0
		for i := range m {
			w := m[i][j]
			if w != 0 {
				rows++
			}
			if w >= 0 {
				pos += w
			} else {
				neg -= w
			}
		}
		drive = math.Max(drive, float64(max(pos, neg)))
		support = max(support, rows)
	}
	return drive, support
}

// TestSafeEtaBoundsColumnDrive pins what the crossbar kernel's choice of
// walk relies on (internal/xbar, walkLanes): the thresholds the synthesizer
// hands out are integers ≥ 1 that no column's per-polarity drive can exceed,
// so an ideally programmed neuron never saturates and the integer-lane walk
// applies. A change to the η rule that breaks this would not break any
// result — it would silently send every crossbar back to the float walk —
// so it fails here instead. The two constructions that do saturate by design
// (pairwise-max comb and residual add: two +maxW rows against η = maxW) read
// two rows per column, which the kernel answers from tables.
func TestSafeEtaBoundsColumnDrive(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(12)
		maxW := []int{0, 1, 120}[trial%3]
		var tiles [][][]int
		for n := 1 + rng.Intn(3); n > 0; n-- {
			m := make([][]int, rows)
			for i := range m {
				m[i] = make([]int, cols)
				for j := range m[i] {
					m[i][j] = rng.Intn(2*maxW+1) - maxW
				}
			}
			tiles = append(tiles, m)
		}
		eta := safeEta(tiles...)
		if eta < 1 || eta != math.Trunc(eta) {
			t.Fatalf("safeEta = %g, want an integer ≥ 1", eta)
		}
		for _, m := range tiles {
			if drive, _ := columnDrives(m); drive > eta {
				t.Fatalf("safeEta = %g below a column drive of %g", eta, drive)
			}
		}
	}

	// Every group of a network using the whole structural vocabulary,
	// including a row-split layer and its reduction.
	g := cgraph.New("vocab")
	in := g.MustAdd("input", cgraph.Input{Shape: cgraph.Shape{C: 40, H: 4, W: 4}})
	c1 := g.MustAdd("conv1", cgraph.Conv2D{OutC: 6, Kernel: 3, Stride: 1, Pad: 1}, in)
	r1 := g.MustAdd("relu1", cgraph.ReLU{}, c1)
	sum := g.MustAdd("sum", cgraph.Add{}, r1, r1)
	mp := g.MustAdd("maxpool", cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2}, sum)
	ap := g.MustAdd("avgpool", cgraph.Pool{PoolKind: cgraph.AvgPoolKind, Kernel: 2, Stride: 1}, mp)
	gap := g.MustAdd("gap", cgraph.GlobalAvgPool{}, ap)
	fc := g.MustAdd("fc", cgraph.FC{Out: 3}, gap)
	g.MustAdd("relu2", cgraph.ReLU{}, fc)
	opts := DefaultOptions()
	shapes := map[string][2]int{"conv1": {9 * 40, 6}, "fc": {6, 3}} // conv1 exceeds the crossbar's 256 rows
	opts.Weights = func(l string) [][]float64 {
		shape, ok := shapes[l]
		if !ok {
			return nil
		}
		w := make([][]float64, shape[0])
		for i := range w {
			w[i] = make([]float64, shape[1])
			for j := range w[i] {
				w[i][j] = rng.Float64()*2 - 1
			}
		}
		return w
	}
	_, prog, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	saturating := 0
	for _, grp := range prog.Graph.Groups {
		if grp.Weights == nil {
			continue
		}
		if grp.Eta < 1 || grp.Eta != math.Trunc(grp.Eta) {
			t.Errorf("group %s: η = %g, want an integer ≥ 1", grp.Name, grp.Eta)
		}
		drive, support := columnDrives(grp.Weights)
		switch {
		case drive <= grp.Eta:
		case support <= 2:
			saturating++
		default:
			t.Errorf("group %s: η = %g below a column drive of %g over %d rows", grp.Name, grp.Eta, drive, support)
		}
	}
	if saturating != 2 {
		t.Errorf("%d two-row groups saturate, want 2 (pairwise-max comb and residual add)", saturating)
	}
}
