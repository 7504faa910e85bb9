package experiments

import (
	"math"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/perf"
	"fpsa/internal/synth"
)

// CurvePoint is one (area, performance) sample of a perf-vs-area curve.
type CurvePoint struct {
	Dup     int
	AreaMM2 float64
	OPS     float64
}

// Sweep holds one architecture's peak/ideal/real curves over a duplication
// sweep (the Figure 2 and Figure 6 series).
type Sweep struct {
	Target perf.Target
	Peak   []CurvePoint
	Ideal  []CurvePoint
	Real   []CurvePoint
}

// DefaultSweepDups is the duplication sweep used by Figures 2 and 6.
var DefaultSweepDups = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// sweepTarget evaluates one architecture over the duplication sweep.
func sweepTarget(g *cgraph.Graph, co *coreop.Graph, dups []int, target perf.Target) (Sweep, error) {
	s := Sweep{Target: target}
	for _, d := range dups {
		r, err := perf.Evaluate(perf.Input{
			Model: g, CoreOps: co, Params: device.Params45nm, Dup: d,
		}, target)
		if err != nil {
			return Sweep{}, err
		}
		s.Peak = append(s.Peak, CurvePoint{Dup: d, AreaMM2: r.AreaMM2, OPS: r.PeakOPS})
		s.Ideal = append(s.Ideal, CurvePoint{Dup: d, AreaMM2: r.AreaMM2, OPS: r.TemporalBoundOPS})
		s.Real = append(s.Real, CurvePoint{Dup: d, AreaMM2: r.AreaMM2, OPS: r.PerfOPS})
	}
	return s, nil
}

// Figure2Result is PRIME's perf-vs-area study for VGG16.
type Figure2Result struct {
	Model string
	PRIME Sweep
}

// Figure2 reproduces the motivation study: PRIME's real performance is
// communication-bound, far below its ideal curve.
func Figure2(dups []int) (Figure2Result, error) {
	if len(dups) == 0 {
		dups = DefaultSweepDups
	}
	g, err := models.ByName(models.NameVGG16)
	if err != nil {
		return Figure2Result{}, err
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		return Figure2Result{}, err
	}
	s, err := sweepTarget(g, co, dups, perf.TargetPRIME)
	if err != nil {
		return Figure2Result{}, err
	}
	return Figure2Result{Model: models.NameVGG16, PRIME: s}, nil
}

// Figure6Result compares PRIME, FP-PRIME and FPSA for VGG16.
type Figure6Result struct {
	Model   string
	PRIME   Sweep
	FPPRIME Sweep
	FPSA    Sweep
	// SpeedupAtMatchedArea is FPSA's real performance over PRIME's real
	// performance where their area curves overlap most closely at the
	// high end (the paper's "up to 1000×" claim).
	SpeedupAtMatchedArea float64
}

// Figure6 reproduces the three-way comparison.
func Figure6(dups []int) (Figure6Result, error) {
	if len(dups) == 0 {
		dups = DefaultSweepDups
	}
	g, err := models.ByName(models.NameVGG16)
	if err != nil {
		return Figure6Result{}, err
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		return Figure6Result{}, err
	}
	res := Figure6Result{Model: models.NameVGG16}
	if res.PRIME, err = sweepTarget(g, co, dups, perf.TargetPRIME); err != nil {
		return Figure6Result{}, err
	}
	if res.FPPRIME, err = sweepTarget(g, co, dups, perf.TargetFPPRIME); err != nil {
		return Figure6Result{}, err
	}
	if res.FPSA, err = sweepTarget(g, co, dups, perf.TargetFPSA); err != nil {
		return Figure6Result{}, err
	}
	res.SpeedupAtMatchedArea = matchedAreaSpeedup(res.FPSA.Real, res.PRIME.Real)
	return res, nil
}

// matchedAreaSpeedup compares the best FPSA point against PRIME's real
// performance interpolated at the same area (PRIME saturates, so the
// nearest-not-smaller-area point is a fair stand-in).
func matchedAreaSpeedup(fpsa, prim []CurvePoint) float64 {
	best := 0.0
	for _, f := range fpsa {
		// Find PRIME's real performance at ≥ this area.
		var p *CurvePoint
		for i := range prim {
			if prim[i].AreaMM2 >= f.AreaMM2 {
				p = &prim[i]
				break
			}
		}
		if p == nil {
			p = &prim[len(prim)-1]
		}
		if s := f.OPS / p.OPS; s > best {
			best = s
		}
	}
	return best
}

// Figure7Row is one architecture's per-PE latency breakdown for VGG16.
type Figure7Row struct {
	Target perf.Target
	CompNS float64
	CommNS float64
}

// Figure7 reproduces the latency-breakdown bars at the 64× evaluation
// configuration.
func Figure7() ([]Figure7Row, error) {
	g, err := models.ByName(models.NameVGG16)
	if err != nil {
		return nil, err
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var rows []Figure7Row
	for _, target := range []perf.Target{perf.TargetPRIME, perf.TargetFPPRIME, perf.TargetFPSA} {
		r, err := perf.Evaluate(perf.Input{
			Model: g, CoreOps: co, Params: device.Params45nm, Dup: 64,
		}, target)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure7Row{Target: target, CompNS: r.CompNSPerVMM, CommNS: r.CommNSPerVMM})
	}
	return rows, nil
}

// Figure8Row is one (model, duplication) sample of the scalability study.
type Figure8Row struct {
	Model                string
	Dup                  int
	PerfOPS              float64
	AreaMM2              float64
	DensityOPSmm2        float64
	PeakDensity          float64
	SpatialBoundDensity  float64
	TemporalBoundDensity float64
}

// Figure8Dups is the paper's duplication ladder.
var Figure8Dups = []int{1, 4, 16, 64}

// Figure8 reproduces the scalability/utilization study over all benchmark
// models.
func Figure8(dups []int) ([]Figure8Row, error) {
	if len(dups) == 0 {
		dups = Figure8Dups
	}
	var rows []Figure8Row
	for _, name := range models.Names() {
		g, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		co, err := synth.Synthesize(g, synth.DefaultOptions())
		if err != nil {
			return nil, err
		}
		for _, d := range dups {
			r, err := perf.Evaluate(perf.Input{
				Model: g, CoreOps: co, Params: device.Params45nm, Dup: d,
			}, perf.TargetFPSA)
			if err != nil {
				return nil, err
			}
			row := Figure8Row{
				Model: name, Dup: d,
				PerfOPS: r.PerfOPS, AreaMM2: r.AreaMM2, DensityOPSmm2: r.DensityOPSmm2,
			}
			if r.AreaMM2 > 0 {
				row.PeakDensity = r.PeakOPS / r.AreaMM2
				row.SpatialBoundDensity = r.SpatialBoundOPS / r.AreaMM2
				row.TemporalBoundDensity = r.TemporalBoundOPS / r.AreaMM2
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure8Geomeans summarizes the paper's headline: geometric-mean
// performance and area growth at each duplication degree relative to 1×.
func Figure8Geomeans(rows []Figure8Row, dups []int) (perfGain, areaGain map[int]float64) {
	base := make(map[string]Figure8Row)
	for _, r := range rows {
		if r.Dup == 1 {
			base[r.Model] = r
		}
	}
	perfGain = make(map[int]float64)
	areaGain = make(map[int]float64)
	for _, d := range dups {
		if d == 1 {
			continue
		}
		pProd, aProd, n := 1.0, 1.0, 0
		for _, r := range rows {
			if r.Dup != d {
				continue
			}
			b := base[r.Model]
			pProd *= r.PerfOPS / b.PerfOPS
			aProd *= r.AreaMM2 / b.AreaMM2
			n++
		}
		if n > 0 {
			perfGain[d] = pow(pProd, 1/float64(n))
			areaGain[d] = pow(aProd, 1/float64(n))
		}
	}
	return perfGain, areaGain
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}
