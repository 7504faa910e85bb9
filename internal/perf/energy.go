package perf

import (
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/mapper"
)

// EnergyBreakdown is the per-sample energy of one deployment, from the
// Table 1 per-block energies. Routing-wire/switch energy is excluded (the
// paper publishes no per-hop constant); PE energy scales with each
// core-op's active rows/columns (idle charging units and neurons are
// clock-gated), SMB energy counts one write and one read per buffered
// count, and CLB energy charges every controller cycle of the pipeline
// period.
type EnergyBreakdown struct {
	PEuJ  float64
	SMBuJ float64
	CLBuJ float64
}

// TotalUJ returns the per-sample total in microjoules.
func (e EnergyBreakdown) TotalUJ() float64 { return e.PEuJ + e.SMBuJ + e.CLBuJ }

// energyPerSample models one sample's energy on the FPSA fabric.
func energyPerSample(g *coreop.Graph, a mapper.Allocation, clbs int, p device.Params) EnergyBreakdown {
	var e EnergyBreakdown
	rows := float64(p.CrossbarRows)
	cols := float64(p.LogicalColumns())
	for gi, grp := range g.Groups {
		rowFrac := float64(grp.Rows) / rows
		colFrac := float64(grp.Cols) / cols
		vmmPJ := p.ChargingUnitsTotal.EnergyPJ*rowFrac +
			p.ReRAMArraysTotal.EnergyPJ*rowFrac*colFrac +
			p.NeuronUnitsTotal.EnergyPJ*colFrac +
			p.SubtractersTotal.EnergyPJ*colFrac
		e.PEuJ += float64(grp.Reuse) * vmmPJ * 1e-6

		// Buffered inputs: every consumed count is written once and
		// read once from a 16 Kb SMB.
		for _, ui := range grp.Deps {
			if a.Buffered(ui, gi) {
				counts := float64(g.Groups[ui].Cols) * float64(g.Groups[ui].Reuse)
				e.SMBuJ += 2 * counts * p.SMB.EnergyPJ * 1e-6
			}
		}
	}
	// Controllers tick every pipeline cycle of the sample period.
	cyclesPerSample := float64(a.MaxIterations()) * float64(p.SamplingWindow())
	e.CLBuJ += float64(clbs) * cyclesPerSample * p.CLB.EnergyPJ * 1e-6
	return e
}
