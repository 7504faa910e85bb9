package device

// BlockCost is the (energy, area, latency) triple NVSim/Design Compiler
// report for one circuit block at 45 nm (paper Table 1).
type BlockCost struct {
	EnergyPJ  float64 // energy per activation, picojoules
	AreaUM2   float64 // area, square micrometres
	LatencyNS float64 // latency, nanoseconds
}

// Params holds every published 45 nm constant the evaluation depends on.
// The values are the paper's Tables 1 and 2 verbatim; the architecture and
// system layers treat them as externally supplied ground truth (they come
// from NVSim [12] and Synopsys Design Compiler in the paper).
type Params struct {
	// CrossbarRows/Cols are the physical crossbar dimensions. Two
	// physical columns form one logical column (positive and negative),
	// so the logical matrix is CrossbarRows × CrossbarCols/2.
	CrossbarRows int
	CrossbarCols int
	// CellsPerWeight is how many parallel cells form one weight with the
	// add method (8 per polarity in the paper's configuration).
	CellsPerWeight int
	// WeightBits is the logical weight precision (8 bit).
	WeightBits int
	// IOBits is the input/output precision; the sampling window is
	// 2^IOBits cycles (6 bit ⇒ Γ=64).
	IOBits int

	// Per-unit block costs (Table 1 per-unit rows). The published
	// per-unit energies/areas are rounded for display; the ×N aggregate
	// rows below are canonical (they sum exactly to the PE totals).
	ChargingUnit BlockCost // one per crossbar row
	ReRAMArray   BlockCost // one 256×512 array; ×8 for 8 cells/weight
	NeuronUnit   BlockCost // one per physical column
	Subtracter   BlockCost // one per logical column (column pair)
	CLB          BlockCost // 128 LUTs
	SMB          BlockCost // 16 Kb SRAM

	// Aggregate costs (Table 1 "×N" rows; latency fields repeat the
	// per-unit stage latency since the units operate in parallel).
	ChargingUnitsTotal BlockCost // ×256
	ReRAMArraysTotal   BlockCost // ×8
	NeuronUnitsTotal   BlockCost // ×512
	SubtractersTotal   BlockCost // ×256

	// PETotal is the published aggregate PE cost (Table 1 header row).
	// Area and latency equal the component sums exactly; the published
	// energy total differs from the component sum by ~3 % (rounding in
	// the paper), so we keep both.
	PETotal BlockCost

	// SMBCapacityBits is the SMB SRAM capacity (16 Kb).
	SMBCapacityBits int
	// CLBLUTs is the number of LUTs per CLB (sized so one CLB matches
	// one PE in area and pin count, §6.1).
	CLBLUTs int
	// LUTInputs is the LUT fan-in (conventional 6-input LUT, §4.4).
	LUTInputs int

	// WireDelayPerHopNS is the routing-architecture delay for one signal
	// to traverse one tile-to-tile hop (segment + mrFPGA ReRAM switch).
	// Calibrated so the mrVPR-reported averages in Figure 7 are
	// reproduced: a routed VGG16 net averages ~6 hops ⇒ ~9.9 ns per
	// signal transition, giving 6-bit count transmission 59.4 ns
	// (FP-PRIME) and Γ=64 spike-train transmission 633.9 ns (FPSA).
	WireDelayPerHopNS float64
	// TypicalRouteHops is the average routed critical-hop count backing
	// the calibration above; the full router reports exact values.
	TypicalRouteHops int
}

// Params45nm is the paper's evaluated configuration.
var Params45nm = Params{
	CrossbarRows:   256,
	CrossbarCols:   512,
	CellsPerWeight: 8,
	WeightBits:     8,
	IOBits:         6,

	ChargingUnit: BlockCost{EnergyPJ: 0.001, AreaUM2: 2.246, LatencyNS: 0.070},
	ReRAMArray:   BlockCost{EnergyPJ: 0.131, AreaUM2: 1061.683, LatencyNS: 0.000},
	NeuronUnit:   BlockCost{EnergyPJ: 0.039, AreaUM2: 19.247, LatencyNS: 1.463},
	Subtracter:   BlockCost{EnergyPJ: 0.031, AreaUM2: 12.121, LatencyNS: 0.910},
	CLB:          BlockCost{EnergyPJ: 3.106, AreaUM2: 5998.272, LatencyNS: 0.229},
	SMB:          BlockCost{EnergyPJ: 1.150, AreaUM2: 5421.900, LatencyNS: 0.578},

	ChargingUnitsTotal: BlockCost{EnergyPJ: 0.229, AreaUM2: 600.704, LatencyNS: 0.070},
	ReRAMArraysTotal:   BlockCost{EnergyPJ: 1.049, AreaUM2: 8493.466, LatencyNS: 0.000},
	NeuronUnitsTotal:   BlockCost{EnergyPJ: 19.861, AreaUM2: 9854.342, LatencyNS: 1.463},
	SubtractersTotal:   BlockCost{EnergyPJ: 8.945, AreaUM2: 3102.902, LatencyNS: 0.910},

	PETotal: BlockCost{EnergyPJ: 29.094, AreaUM2: 22051.414, LatencyNS: 2.443},

	SMBCapacityBits: 16 * 1024,
	CLBLUTs:         128,
	LUTInputs:       6,

	WireDelayPerHopNS: 1.651,
	TypicalRouteHops:  6,
}

// SamplingWindow returns Γ = 2^IOBits, the spike-count window that encodes
// one IOBits-bit number (§4.2).
func (p Params) SamplingWindow() int { return 1 << uint(p.IOBits) }

// PipelineClockNS returns the PE cycle time: the sum of the charging,
// neuron, and subtracter stage latencies (2.443 ns in Table 1; the crossbar
// RC delay itself is ~10 ps and counted as zero).
func (p Params) PipelineClockNS() float64 {
	return p.ChargingUnit.LatencyNS + p.NeuronUnit.LatencyNS + p.Subtracter.LatencyNS
}

// VMMLatencyNS returns the latency of one full vector-matrix multiplication
// on a PE: Γ pipeline cycles (156.4 ns for the 6-bit window, Table 2).
func (p Params) VMMLatencyNS() float64 {
	return float64(p.SamplingWindow()) * p.PipelineClockNS()
}

// LogicalColumns returns the number of logical output columns (column
// pairs).
func (p Params) LogicalColumns() int { return p.CrossbarCols / 2 }

// WeightsPerPE returns the logical weight capacity of one PE crossbar.
func (p Params) WeightsPerPE() int { return p.CrossbarRows * p.LogicalColumns() }

// OpsPerVMM returns the operation count the paper attributes to one
// crossbar pass: a multiply and an add per logical cell.
func (p Params) OpsPerVMM() int { return 2 * p.WeightsPerPE() }

// PEAreaUM2 returns the component-sum PE area (equals the published total).
func (p Params) PEAreaUM2() float64 {
	return p.ChargingUnitsTotal.AreaUM2 + p.ReRAMArraysTotal.AreaUM2 +
		p.NeuronUnitsTotal.AreaUM2 + p.SubtractersTotal.AreaUM2
}

// PEEnergyPJ returns the component-sum PE energy per VMM cycle set.
func (p Params) PEEnergyPJ() float64 {
	return p.ChargingUnitsTotal.EnergyPJ + p.ReRAMArraysTotal.EnergyPJ +
		p.NeuronUnitsTotal.EnergyPJ + p.SubtractersTotal.EnergyPJ
}

// ComputationalDensityOPSmm2 returns OPS per mm² for one PE running
// back-to-back VMMs: OpsPerVMM / (VMMLatency × PEArea). The paper's Table 2
// value is 38.004 TOPS/mm².
func (p Params) ComputationalDensityOPSmm2() float64 {
	areaMM2 := p.PEAreaUM2() * 1e-6
	latencyS := p.VMMLatencyNS() * 1e-9
	return float64(p.OpsPerVMM()) / latencyS / areaMM2
}

// WireDelayNS returns the signal-transition delay across a routed path of
// the given hop count.
func (p Params) WireDelayNS(hops int) float64 {
	return float64(hops) * p.WireDelayPerHopNS
}
