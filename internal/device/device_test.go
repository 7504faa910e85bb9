package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCellSpecLevels(t *testing.T) {
	if got := Cell4Bit.Levels(); got != 16 {
		t.Fatalf("Cell4Bit.Levels() = %d, want 16", got)
	}
	if got := Cell4Bit.MaxLevel(); got != 15 {
		t.Fatalf("Cell4Bit.MaxLevel() = %d, want 15", got)
	}
}

// TestCellSpecValidate checks the cell specs the code declares: each
// holds 1–8 bits and a non-negative σ. They are compile-time constants,
// so this test is their only check.
func TestCellSpecValidate(t *testing.T) {
	for _, c := range []CellSpec{Cell4Bit, Cell4BitMeasured} {
		if c.Bits <= 0 || c.Bits > 8 || c.Sigma < 0 {
			t.Errorf("cell spec %+v: want 1–8 bits and σ ≥ 0", c)
		}
	}
}

func TestProgramIdeal(t *testing.T) {
	spec := CellSpec{Bits: 4}
	for l := 0; l <= spec.MaxLevel(); l++ {
		if got := spec.Program(l, nil); got != float64(l) {
			t.Errorf("Program(%d, nil) = %v, want %d", l, got, l)
		}
	}
}

func TestProgramClamps(t *testing.T) {
	spec := CellSpec{Bits: 4}
	if got := spec.Program(-5, nil); got != 0 {
		t.Errorf("Program(-5) = %v, want 0", got)
	}
	if got := spec.Program(100, nil); got != 15 {
		t.Errorf("Program(100) = %v, want 15", got)
	}
}

func TestProgramVariationStatistics(t *testing.T) {
	spec := CellSpec{Bits: 4, Sigma: 0.4}
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	const level = 8
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		g := spec.Program(level, rng)
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-level) > 0.01 {
		t.Errorf("programmed mean = %v, want ~%d", mean, level)
	}
	if math.Abs(std-spec.Sigma) > 0.01 {
		t.Errorf("programmed std = %v, want ~%v", std, spec.Sigma)
	}
}

func TestProgramNeverNegative(t *testing.T) {
	spec := CellSpec{Bits: 4, Sigma: 5} // absurd sigma to force clipping
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		if g := spec.Program(0, rng); g < 0 {
			t.Fatalf("Program produced negative conductance %v", g)
		}
	}
}

func TestParams45nmTable1Sums(t *testing.T) {
	p := Params45nm
	// Table 1: PE area and latency are exact component sums.
	if got, want := p.PEAreaUM2(), p.PETotal.AreaUM2; math.Abs(got-want) > 1e-6 {
		t.Errorf("PE area component sum = %v, published total %v", got, want)
	}
	if got, want := p.PipelineClockNS(), p.PETotal.LatencyNS; math.Abs(got-want) > 1e-9 {
		t.Errorf("PE latency component sum = %v, published total %v", got, want)
	}
	// Energy: the published total is within 5% of the component sum
	// (rounding in the paper's table).
	sum := p.ChargingUnitsTotal.EnergyPJ + p.ReRAMArraysTotal.EnergyPJ + p.NeuronUnitsTotal.EnergyPJ + p.SubtractersTotal.EnergyPJ
	if got, want := sum, p.PETotal.EnergyPJ; math.Abs(got-want)/want > 0.05 {
		t.Errorf("PE energy component sum = %v, published total %v (>5%% apart)", got, want)
	}
}

func TestParams45nmDerived(t *testing.T) {
	p := Params45nm
	if got := p.SamplingWindow(); got != 64 {
		t.Errorf("SamplingWindow = %d, want 64", got)
	}
	if got := p.VMMLatencyNS(); math.Abs(got-156.352) > 1e-3 {
		t.Errorf("VMMLatencyNS = %v, want 156.352 (Table 2: 156.4)", got)
	}
	if got := p.WeightsPerPE(); got != 256*256 {
		t.Errorf("WeightsPerPE = %d, want %d", got, 256*256)
	}
	if got := p.OpsPerVMM(); got != 2*256*256 {
		t.Errorf("OpsPerVMM = %d, want %d", got, 2*256*256)
	}
	// Table 2: computational density 38.004 TOPS/mm².
	if got := p.ComputationalDensityOPSmm2(); math.Abs(got-38.004e12)/38.004e12 > 0.001 {
		t.Errorf("ComputationalDensity = %v, want ~38.004e12", got)
	}
}

func TestWireDelayCalibration(t *testing.T) {
	p := Params45nm
	perSignal := float64(p.TypicalRouteHops) * p.WireDelayPerHopNS
	// Figure 7: 6-bit count transmission = 59.4 ns, Γ=64 spike train =
	// 633.9 ns (within 1%).
	if got := perSignal * 6; math.Abs(got-59.4)/59.4 > 0.01 {
		t.Errorf("6-bit count transmission = %v ns, want ~59.4", got)
	}
	if got := perSignal * 64; math.Abs(got-633.9)/633.9 > 0.01 {
		t.Errorf("spike-train transmission = %v ns, want ~633.9", got)
	}
}

func TestWeightsFitSMB(t *testing.T) {
	p := Params45nm
	// An SMB stores spike counts bit-indexed: 16 Kb holds 16384/IOBits
	// counts at the evaluated precision.
	counts := p.SMBCapacityBits / p.IOBits
	if counts < p.LogicalColumns() {
		t.Errorf("one SMB holds %d counts, cannot buffer one PE output row of %d", counts, p.LogicalColumns())
	}
}

func TestQuickProgramWithinRange(t *testing.T) {
	spec := CellSpec{Bits: 4, Sigma: 0.3}
	rng := rand.New(rand.NewSource(3))
	f := func(level int) bool {
		g := spec.Program(level%64, rng)
		return g >= 0 && g <= float64(spec.MaxLevel())+6*spec.Sigma
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
