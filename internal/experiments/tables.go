// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): each driver returns typed results with the same
// rows/series the paper reports. The root package's TestFidelity sets
// their numbers beside the published ones in docs/FIDELITY.md.
package experiments

import (
	"fmt"

	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/perf"
	"fpsa/internal/prime"
	"fpsa/internal/synth"
)

// Table1Row is one function-block row of Table 1.
type Table1Row struct {
	Block     string
	EnergyPJ  float64
	AreaUM2   float64
	LatencyNS float64
}

// Table1 reproduces the 45 nm function-block parameter table.
func Table1(p device.Params) []Table1Row {
	return []Table1Row{
		{"PE (256x256)", p.PETotal.EnergyPJ, p.PETotal.AreaUM2, p.PETotal.LatencyNS},
		{"  Charging Unit x256", p.ChargingUnitsTotal.EnergyPJ, p.ChargingUnitsTotal.AreaUM2, p.ChargingUnit.LatencyNS},
		{"  ReRAM (256x512) x8", p.ReRAMArraysTotal.EnergyPJ, p.ReRAMArraysTotal.AreaUM2, p.ReRAMArray.LatencyNS},
		{"  Neuron Unit x512", p.NeuronUnitsTotal.EnergyPJ, p.NeuronUnitsTotal.AreaUM2, p.NeuronUnit.LatencyNS},
		{"  Subtracter x256", p.SubtractersTotal.EnergyPJ, p.SubtractersTotal.AreaUM2, p.Subtracter.LatencyNS},
		{"CLB (128x LUT)", p.CLB.EnergyPJ, p.CLB.AreaUM2, p.CLB.LatencyNS},
		{"SMB (16Kb)", p.SMB.EnergyPJ, p.SMB.AreaUM2, p.SMB.LatencyNS},
	}
}

// Table2Result compares one PE of PRIME and FPSA for a 256×256 VMM with
// 8-bit weights and 6-bit I/O.
type Table2Result struct {
	PRIMEAreaUM2     float64
	PRIMELatencyNS   float64
	PRIMEDensity     float64
	FPSAAreaUM2      float64
	FPSALatencyNS    float64
	FPSADensity      float64
	AreaReductionPct float64 // paper: −36.63 %
	LatencyReductPct float64 // paper: −94.90 %
	DensityGain      float64 // paper: 30.92×
	ISAACDensity     float64
	PipeLayerDensity float64
}

// Table2 reproduces the PE comparison.
func Table2(p device.Params) Table2Result {
	r := Table2Result{
		PRIMEAreaUM2:     prime.PE.AreaUM2,
		PRIMELatencyNS:   prime.PE.VMMLatencyNS,
		PRIMEDensity:     prime.ComputationalDensityOPSmm2(),
		FPSAAreaUM2:      p.PEAreaUM2(),
		FPSALatencyNS:    p.VMMLatencyNS(),
		FPSADensity:      p.ComputationalDensityOPSmm2(),
		ISAACDensity:     prime.DensityISAAC,
		PipeLayerDensity: prime.DensityPipeLayer,
	}
	r.AreaReductionPct = 100 * (r.FPSAAreaUM2 - r.PRIMEAreaUM2) / r.PRIMEAreaUM2
	r.LatencyReductPct = 100 * (r.FPSALatencyNS - r.PRIMELatencyNS) / r.PRIMELatencyNS
	r.DensityGain = r.FPSADensity / r.PRIMEDensity
	return r
}

// Table3Row is one model column of Table 3.
type Table3Row struct {
	Model         string
	Weights       int64
	Ops           int64
	ThroughputSPS float64
	LatencyUS     float64
	AreaMM2       float64
}

// Table3 evaluates every benchmark model on FPSA at the given duplication
// degree (the paper reports the 64× case).
func Table3(dup int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range models.Names() {
		g, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		co, err := synth.Synthesize(g, synth.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		r, err := perf.Evaluate(perf.Input{
			Model: g, CoreOps: co, Params: device.Params45nm, Dup: dup,
		}, perf.TargetFPSA)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		s := g.Summary()
		rows = append(rows, Table3Row{
			Model:         name,
			Weights:       s.Weights,
			Ops:           s.Ops,
			ThroughputSPS: r.ThroughputSPS,
			LatencyUS:     r.LatencyUS,
			AreaMM2:       r.AreaMM2,
		})
	}
	return rows, nil
}
