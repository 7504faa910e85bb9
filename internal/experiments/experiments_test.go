package experiments

import (
	"math"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/perf"
)

func TestTable1MatchesPublished(t *testing.T) {
	rows := Table1(device.Params45nm)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	if rows[0].AreaUM2 != 22051.414 {
		t.Errorf("PE area = %v, want 22051.414", rows[0].AreaUM2)
	}
	if rows[0].LatencyNS != 2.443 {
		t.Errorf("PE latency = %v, want 2.443", rows[0].LatencyNS)
	}
}

// The three headline numbers themselves are TestFidelity rows.
func TestTable2HeadlineNumbers(t *testing.T) {
	r := Table2(device.Params45nm)
	if r.FPSADensity < r.PipeLayerDensity || r.FPSADensity < r.ISAACDensity {
		t.Error("FPSA density not above PipeLayer/ISAAC")
	}
}

func TestTable3ShapesMatchPaper(t *testing.T) {
	rows, err := Table3(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byModel := make(map[string]Table3Row)
	for _, r := range rows {
		byModel[r.Model] = r
	}
	// The VGG16 and MLP cells against the paper are TestFidelity rows.
	vgg, mlp := byModel["VGG16"], byModel["MLP-500-100"]
	// Ordering: MLP is the fastest; VGG16 the slowest (throughput).
	for _, r := range rows {
		if r.Model != "MLP-500-100" && r.ThroughputSPS > mlp.ThroughputSPS {
			t.Errorf("%s throughput %v exceeds MLP %v", r.Model, r.ThroughputSPS, mlp.ThroughputSPS)
		}
		if r.Model != "VGG16" && r.ThroughputSPS < vgg.ThroughputSPS {
			t.Errorf("%s throughput %v below VGG16 %v", r.Model, r.ThroughputSPS, vgg.ThroughputSPS)
		}
	}
}

func TestFigure2CommunicationBound(t *testing.T) {
	r, err := Figure2(nil)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.PRIME.Real) - 1
	// The real curve must saturate: two orders of magnitude below ideal
	// at the largest area (paper: "two orders of magnitude lower").
	gap := r.PRIME.Ideal[last].OPS / r.PRIME.Real[last].OPS
	if gap < 30 {
		t.Errorf("ideal/real gap = %.1fx, want ≥30 (paper ~100x)", gap)
	}
	// Peak ≥ ideal ≥ real pointwise.
	for i := range r.PRIME.Peak {
		if r.PRIME.Ideal[i].OPS > r.PRIME.Peak[i].OPS*1.001 || r.PRIME.Real[i].OPS > r.PRIME.Ideal[i].OPS*1.001 {
			t.Errorf("point %d: bound ordering violated", i)
		}
	}
	// Real performance grows sub-2x over the last two sweep doublings
	// (the plateau).
	n := len(r.PRIME.Real)
	if growth := r.PRIME.Real[n-1].OPS / r.PRIME.Real[n-3].OPS; growth > 2 {
		t.Errorf("real curve still growing %.2fx over last two doublings", growth)
	}
}

func TestFigure6SpeedupClaim(t *testing.T) {
	r, err := Figure6(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The matched-area speedup is a TestFidelity row. FP-PRIME must sit
	// close to its ideal curve (communication bound broken by the routing
	// architecture alone).
	for i := range r.FPPRIME.Real {
		if r.FPPRIME.Real[i].OPS < 0.8*r.FPPRIME.Ideal[i].OPS {
			t.Errorf("FP-PRIME point %d: real %.3g far from ideal %.3g",
				i, r.FPPRIME.Real[i].OPS, r.FPPRIME.Ideal[i].OPS)
		}
	}
}

func TestFigure7Bars(t *testing.T) {
	rows, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byTarget := make(map[perf.Target]Figure7Row)
	for _, r := range rows {
		byTarget[r.Target] = r
	}
	// PRIME communication dominates computation; FPSA communication is
	// within an order of magnitude of computation; FP-PRIME negligible.
	// FPSA's two bars against the paper's are TestFidelity rows.
	if p := byTarget[perf.TargetPRIME]; p.CommNS < p.CompNS {
		t.Errorf("PRIME comm %v not dominating comp %v", p.CommNS, p.CompNS)
	}
	if f := byTarget[perf.TargetFPSA]; f.CommNS > 10*f.CompNS {
		t.Errorf("FPSA comm %v not within an order of magnitude of comp %v", f.CommNS, f.CompNS)
	}
	if f := byTarget[perf.TargetFPPRIME]; f.CommNS > 0.05*f.CompNS {
		t.Errorf("FP-PRIME comm %v not negligible vs comp %v", f.CommNS, f.CompNS)
	}
}

func TestFigure8GeomeanShapes(t *testing.T) {
	rows, err := Figure8(nil)
	if err != nil {
		t.Fatal(err)
	}
	perfGain, areaGain := Figure8Geomeans(rows, Figure8Dups)
	// Hold the super-linear shape: perf gain above area gain (the
	// geomeans against the paper's are TestFidelity rows).
	for _, d := range []int{4, 16, 64} {
		if perfGain[d] < areaGain[d] {
			t.Errorf("@%dx: perf gain %.2f below area gain %.2f (not super-linear)", d, perfGain[d], areaGain[d])
		}
	}
	// Bounds behaviour (Figure 8c): for CNNs the temporal bound rises
	// with duplication while the spatial bound stays put.
	var vggRows []Figure8Row
	for _, r := range rows {
		if r.Model == "VGG16" {
			vggRows = append(vggRows, r)
		}
	}
	first, last := vggRows[0], vggRows[len(vggRows)-1]
	if last.TemporalBoundDensity <= first.TemporalBoundDensity {
		t.Error("VGG16 temporal bound did not rise with duplication")
	}
	if math.Abs(last.SpatialBoundDensity-first.SpatialBoundDensity)/first.SpatialBoundDensity > 0.35 {
		t.Errorf("VGG16 spatial bound moved %.3g → %.3g (should be ~flat)",
			first.SpatialBoundDensity, last.SpatialBoundDensity)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(Figure9Options{Cells: []int{1, 2, 8, 16}, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Add accuracy is monotone-ish in cells: 16 cells ≥ 1 cell.
	var one, sixteen float64
	for _, p := range r.Points {
		switch p.Cells {
		case 1:
			one = p.AddAcc
		case 16:
			sixteen = p.AddAcc
		}
	}
	if sixteen < one {
		t.Errorf("add accuracy fell with more cells: 1→%.3f, 16→%.3f", one, sixteen)
	}
	// Level staircase: 15k+1.
	for _, p := range r.Points {
		if p.AddLevels != 15*p.Cells+1 {
			t.Errorf("cells %d: levels = %d, want %d", p.Cells, p.AddLevels, 15*p.Cells+1)
		}
	}
}
