package experiments

import (
	"fmt"
	"math/rand"

	"fpsa/internal/device"
	"fpsa/internal/trainer"
)

// Figure9Point is one cell-count sample of the weight-representation study.
type Figure9Point struct {
	Cells int
	// SpliceAcc / AddAcc are Monte-Carlo normalized accuracies under
	// programming variation (−1 when the method is not defined at this
	// cell count: splicing needs the full bit budget).
	SpliceAcc float64
	AddAcc    float64
	// AddQuantAcc is the noise-free add-method accuracy — the "Bound by
	// #Levels" staircase.
	AddQuantAcc float64
	// AddLevels is the representable level count 15·cells+1.
	AddLevels int
	// SpliceDev / AddDev are the closed-form normalized deviations.
	SpliceDev float64
	AddDev    float64
}

// Figure9Options configures the study.
type Figure9Options struct {
	// Cells lists the x-axis samples (default 1,2,4,8,12,16).
	Cells []int
	// Trials is the Monte-Carlo count per point (default 8).
	Trials int
	// Seed fixes the data/novelty RNG.
	Seed int64
	// Spec is the cell (default device.Cell4BitMeasured — calibrated so
	// the PRIME splice configuration reproduces the paper's ~0.7).
	Spec device.CellSpec
}

// Figure9Result carries the study output.
type Figure9Result struct {
	Points       []Figure9Point
	FullAccuracy float64
	PRIMEConfig  Figure9Point // splice, 2 cells
	FPSAConfig   Figure9Point // add, 16 cells (8 per polarity)
	Spec         device.CellSpec
}

// Figure9 trains the substitute network (the paper used VGG16/ImageNet;
// see DESIGN.md §2) and sweeps cell counts for both representation
// methods. Per the paper's configuration the x-axis counts 4-bit cells per
// weight: the splicing method is sampled where the spliced fields cover 8
// bits (2 cells), and the add method across the whole axis; 16 add cells
// (8 per polarity) are "our configuration".
func Figure9(opts Figure9Options) (Figure9Result, error) {
	if len(opts.Cells) == 0 {
		opts.Cells = []int{1, 2, 4, 8, 12, 16}
	}
	if opts.Trials <= 0 {
		opts.Trials = 8
	}
	if opts.Spec.Bits == 0 {
		opts.Spec = device.Cell4BitMeasured
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 301
	}
	rng := rand.New(rand.NewSource(seed))
	train, test := trainer.SyntheticClusters(rng, 1800, 24, 8, 0.13).Split(2.0 / 3)
	net, err := trainer.NewMLP(rng, []int{24, 48, 40, 32, 8})
	if err != nil {
		return Figure9Result{}, err
	}
	net.Train(rng, train, trainer.TrainOptions{Epochs: 60, LR: 0.02})

	res := Figure9Result{FullAccuracy: net.Accuracy(test), Spec: opts.Spec}
	if res.FullAccuracy == 0 {
		return Figure9Result{}, fmt.Errorf("experiments: substitute network failed to train")
	}
	for _, cells := range opts.Cells {
		pt := Figure9Point{Cells: cells, SpliceAcc: -1}
		// Add method: `cells` total, split across polarities by the
		// architecture; the signed normalized deviation matches
		// NewAdd(cells) (see internal/device).
		addRep := device.NewAdd(opts.Spec, cells)
		pt.AddLevels = addRep.EffectiveLevels()
		pt.AddDev = addRep.NormalizedDeviation(opts.Spec)
		pt.AddAcc = trainer.VariationStudy(net, test, addRep, opts.Spec, rng, opts.Trials).NormalizedAccuracy
		pt.AddQuantAcc = trainer.QuantizationOnly(net, test, addRep, opts.Spec).NormalizedAccuracy
		// Splice method: defined where the spliced fields form the
		// 8-bit weight (2 cells in the paper's comparison; more cells
		// extend precision but not robustness).
		if cells >= 2 {
			spliceRep := device.NewSplice(opts.Spec, 2)
			pt.SpliceDev = spliceRep.NormalizedDeviation(opts.Spec)
			pt.SpliceAcc = trainer.VariationStudy(net, test, spliceRep, opts.Spec, rng, opts.Trials).NormalizedAccuracy
		}
		res.Points = append(res.Points, pt)
		if cells == 2 && pt.SpliceAcc >= 0 {
			res.PRIMEConfig = pt
		}
		if cells == 16 {
			res.FPSAConfig = pt
		}
	}
	return res, nil
}
