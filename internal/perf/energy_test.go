package perf

import (
	"testing"

	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
)

func TestEnergyScalesWithModelSize(t *testing.T) {
	small := evalModel(t, models.NameLeNet, 1, TargetFPSA)
	big := evalModel(t, models.NameVGG16, 1, TargetFPSA)
	if small.Energy.TotalUJ() <= 0 {
		t.Fatal("LeNet energy not positive")
	}
	if big.Energy.TotalUJ() <= small.Energy.TotalUJ() {
		t.Errorf("VGG16 energy %.3g ≤ LeNet %.3g", big.Energy.TotalUJ(), small.Energy.TotalUJ())
	}
}

func TestEnergyPerSampleIndependentOfDuplication(t *testing.T) {
	// Duplication trades area for throughput; per-sample work is
	// unchanged, so PE energy per sample must stay identical and total
	// may only shrink (fewer iterations → fewer controller cycles).
	r1 := evalModel(t, models.NameVGG17, 1, TargetFPSA)
	r16 := evalModel(t, models.NameVGG17, 16, TargetFPSA)
	if r1.Energy.PEuJ != r16.Energy.PEuJ {
		t.Errorf("PE energy changed with duplication: %v vs %v", r1.Energy.PEuJ, r16.Energy.PEuJ)
	}
	if r16.Energy.CLBuJ > r1.Energy.CLBuJ {
		t.Errorf("CLB energy rose with duplication: %v vs %v", r1.Energy.CLBuJ, r16.Energy.CLBuJ)
	}
}

func TestPowerTracksThroughputTimesEnergy(t *testing.T) {
	r := evalModel(t, models.NameLeNet, 4, TargetFPSA)
	want := r.Energy.TotalUJ() * r.ThroughputSPS * 1e-3
	if d := r.PowerMW - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("PowerMW = %v, want %v", r.PowerMW, want)
	}
	if r.PowerMW <= 0 {
		t.Error("power not positive")
	}
}

func TestPRIMEEnergyZero(t *testing.T) {
	// The paper publishes no PRIME per-access energies; the model must
	// report zero rather than invent numbers.
	r := evalModel(t, models.NameLeNet, 1, TargetPRIME)
	if r.Energy.TotalUJ() != 0 || r.PowerMW != 0 {
		t.Errorf("PRIME energy/power = %v / %v, want 0", r.Energy.TotalUJ(), r.PowerMW)
	}
}

func TestFullCrossbarVMMEnergyMatchesTable1(t *testing.T) {
	// A single full 256×256 group at reuse 1 must charge exactly the
	// Table 1 component-sum PE energy.
	p := device.Params45nm
	g := &coreop.Graph{Groups: []*coreop.Group{{Rows: p.CrossbarRows, Cols: p.LogicalColumns(), Reuse: 1}}}
	a := mapper.Allocation{Dup: []int{1}, Iterations: []int{1}, TotalPEs: 1, Replicas: 1}
	full := p.ChargingUnitsTotal.EnergyPJ + p.ReRAMArraysTotal.EnergyPJ +
		p.NeuronUnitsTotal.EnergyPJ + p.SubtractersTotal.EnergyPJ
	if got := energyPerSample(g, a, 0, p); got.PEuJ != full*1e-6 || got.SMBuJ != 0 || got.CLBuJ != 0 {
		t.Errorf("energy of one full VMM = %+v, want PE %v µJ and nothing else", got, full*1e-6)
	}
}
