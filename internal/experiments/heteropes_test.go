package experiments

import (
	"testing"

	"fpsa/internal/device"
)

func TestAblationHeteroPEs(t *testing.T) {
	rows, err := AblationHeteroPEs(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byModel := make(map[string]HeteroPERow)
	for _, r := range rows {
		byModel[r.Model] = r
		if r.SmallPEs+r.LargePEs != r.BasePEs {
			t.Errorf("%s: PE split %d+%d ≠ %d", r.Model, r.SmallPEs, r.LargePEs, r.BasePEs)
		}
		if r.MixedAreaMM2 > r.BaseAreaMM2*1.0001 {
			t.Errorf("%s: mixed fabric larger than baseline", r.Model)
		}
		if r.MixedSpatial < r.BaseSpatial*0.999 {
			t.Errorf("%s: spatial bound regressed", r.Model)
		}
	}
	// §7.3's prediction: the gain concentrates where synthesized pooling
	// dominates. GoogLeNet must save far more area than VGG16.
	goog, vgg := byModel["GoogLeNet"], byModel["VGG16"]
	if goog.AreaSavingPc < 2*vgg.AreaSavingPc {
		t.Errorf("GoogLeNet saving %.1f%% not ≫ VGG16 %.1f%%", goog.AreaSavingPc, vgg.AreaSavingPc)
	}
	if goog.AreaSavingPc < 30 {
		t.Errorf("GoogLeNet saving %.1f%%, want ≥30%%", goog.AreaSavingPc)
	}
	if gain := goog.MixedSpatial / goog.BaseSpatial; gain < 1.5 {
		t.Errorf("GoogLeNet spatial gain %.2fx, want ≥1.5x", gain)
	}
}

func TestSmallPEAreaScaling(t *testing.T) {
	p := device.Params45nm
	small := SmallPEAreaUM2(p)
	if small >= p.PETotal.AreaUM2/2 {
		t.Errorf("128² PE area %v not well below half of %v", small, p.PETotal.AreaUM2)
	}
	if small <= p.PETotal.AreaUM2/8 {
		t.Errorf("128² PE area %v implausibly small", small)
	}
}
