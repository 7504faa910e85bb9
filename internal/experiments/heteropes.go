package experiments

import (
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/synth"
)

// The paper's §7.3 names its own fix for the spatial-utilization bound as
// future work: "from the hardware perspective, we could introduce
// different scales of PE to fit weight matrices better". This ablation
// models that proposal: a second, quarter-size PE (128×128 logical) hosts
// every group whose footprint fits, and the chip area / spatial bound are
// recomputed. The small PE's cost scales the Table 1 components: half the
// charging units, neurons and subtracters, a quarter of the ReRAM array.

// SmallPEAreaUM2 returns the 128×128 PE's area from the Table 1 component
// scaling.
func SmallPEAreaUM2(p device.Params) float64 {
	return p.ChargingUnitsTotal.AreaUM2/2 +
		p.ReRAMArraysTotal.AreaUM2/4 +
		p.NeuronUnitsTotal.AreaUM2/2 +
		p.SubtractersTotal.AreaUM2/2
}

// smallPESide is the small PE's logical dimension.
const smallPESide = 128

// HeteroPERow is one model's comparison between the homogeneous fabric and
// the mixed-PE fabric at the same duplication degree.
type HeteroPERow struct {
	Model string
	// Baseline (all 256×256 PEs).
	BasePEs     int
	BaseAreaMM2 float64
	BaseSpatial float64 // spatial-bound density, OPS/mm²
	// Mixed fabric.
	SmallPEs     int
	LargePEs     int
	MixedAreaMM2 float64
	MixedSpatial float64
	AreaSavingPc float64
}

// AblationHeteroPEs evaluates the proposal on every benchmark model at the
// given duplication degree.
func AblationHeteroPEs(dup int) ([]HeteroPERow, error) {
	if dup <= 0 {
		dup = 64
	}
	p := device.Params45nm
	compNS := p.VMMLatencyNS() * 1e-9
	var rows []HeteroPERow
	for _, name := range models.Names() {
		g, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		co, err := synth.Synthesize(g, synth.DefaultOptions())
		if err != nil {
			return nil, err
		}
		alloc, err := mapper.Allocate(co, dup)
		if err != nil {
			return nil, err
		}
		row := HeteroPERow{Model: name}
		var baseArea, mixedArea, baseOPS, mixedOPS float64
		smallArea := SmallPEAreaUM2(p)
		for gi, grp := range co.Groups {
			n := float64(alloc.Dup[gi])
			useful := 2 * float64(grp.UsefulWeights)
			row.BasePEs += alloc.Dup[gi]
			baseArea += n * p.PETotal.AreaUM2
			baseOPS += n * useful
			mixedOPS += n * useful
			if fitsSmall(grp) {
				row.SmallPEs += alloc.Dup[gi]
				mixedArea += n * smallArea
			} else {
				row.LargePEs += alloc.Dup[gi]
				mixedArea += n * p.PETotal.AreaUM2
			}
		}
		row.BaseAreaMM2 = baseArea * 1e-6
		row.MixedAreaMM2 = mixedArea * 1e-6
		row.BaseSpatial = baseOPS / compNS / row.BaseAreaMM2
		row.MixedSpatial = mixedOPS / compNS / row.MixedAreaMM2
		row.AreaSavingPc = 100 * (baseArea - mixedArea) / baseArea
		rows = append(rows, row)
	}
	return rows, nil
}

// fitsSmall reports whether a group fits the 128×128 PE.
func fitsSmall(grp *coreop.Group) bool {
	return grp.Rows <= smallPESide && grp.Cols <= smallPESide
}
