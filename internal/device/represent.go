package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Representation is a method for storing one unsigned weight magnitude on a
// set of ReRAM cells whose conductances sum on a crossbar column. The two
// implementations are the splicing method used by prior accelerators
// (PRIME, ISAAC) and the paper's add method (§7.2).
//
// Encode maps a weight in [0, MaxWeight] to per-cell levels; the effective
// stored value is the plain sum of the programmed conductances scaled by
// Scale (so that different methods are comparable on the same axis).
type Representation interface {
	// Name identifies the method ("splice" or "add").
	Name() string
	// Cells returns the number of cells used per weight.
	Cells() int
	// MaxWeight returns the largest representable integer weight.
	MaxWeight() int
	// Encode maps weight w (clamped to [0, MaxWeight]) to cell levels.
	Encode(w int) []int
	// Scale converts a raw conductance sum into weight units: the
	// decoded weight is Scale() * sum(g_i * coefficient_i). For both
	// methods here coefficients are folded into Encode/Decode.
	Decode(conductances []float64) float64
	// NormalizedDeviation returns the standard deviation of the decoded
	// weight divided by the weight range, the §7.2 accuracy metric.
	NormalizedDeviation(spec CellSpec) float64
	// EffectiveLevels returns how many distinct weight values the method
	// can represent ("Bound by #Levels" in Figure 9).
	EffectiveLevels() int
}

// Splice represents a weight by bit-slicing it across cells: cell i stores
// an n-bit field with positional significance 2^(n*i). PRIME's configuration
// is two 4-bit cells forming an 8-bit weight.
type Splice struct {
	Spec     CellSpec
	NumCells int
}

// NewSplice returns a splicing representation over n cells.
func NewSplice(spec CellSpec, cells int) Splice {
	if cells < 1 {
		panic(fmt.Sprintf("device: splice needs >=1 cell, got %d", cells))
	}
	return Splice{Spec: spec, NumCells: cells}
}

// Name implements Representation.
func (s Splice) Name() string { return "splice" }

// Cells implements Representation.
func (s Splice) Cells() int { return s.NumCells }

// MaxWeight implements Representation.
func (s Splice) MaxWeight() int { return (1 << uint(s.Spec.Bits*s.NumCells)) - 1 }

// EffectiveLevels implements Representation.
func (s Splice) EffectiveLevels() int { return s.MaxWeight() + 1 }

// Encode implements Representation. Cell 0 holds the least-significant
// field.
func (s Splice) Encode(w int) []int {
	w = clampWeight(w, s.MaxWeight())
	levels := make([]int, s.NumCells)
	mask := s.Spec.Levels() - 1
	for i := range levels {
		levels[i] = w & mask
		w >>= uint(s.Spec.Bits)
	}
	return levels
}

// Decode implements Representation: conductances carry positional weights
// 2^(bits*i).
func (s Splice) Decode(conductances []float64) float64 {
	var v float64
	for i, g := range conductances {
		v += g * math.Pow(2, float64(s.Spec.Bits*i))
	}
	return v
}

// NormalizedDeviation implements Representation. For k cells of n bits the
// decoded value is Σ 2^(n·i)·G_i with independent G_i ~ N(level, σ²), so the
// deviation is σ·sqrt(Σ 4^(n·i)) over the range 2^(n·k)−1 — the closed form
// the paper derives for k=2 as sqrt(2^2n + 1)·σ/(2^2n − 1).
func (s Splice) NormalizedDeviation(spec CellSpec) float64 {
	var sumSq float64
	for i := 0; i < s.NumCells; i++ {
		c := math.Pow(2, float64(spec.Bits*i))
		sumSq += c * c
	}
	rangeW := math.Pow(2, float64(spec.Bits*s.NumCells)) - 1
	return spec.Sigma * math.Sqrt(sumSq) / rangeW
}

// Add represents a weight by spreading it evenly across cells with equal
// coefficients (the paper's add method): n cells of b bits represent
// n·(2^b−1)+1 distinct values and divide the deviation by sqrt(n).
type Add struct {
	Spec     CellSpec
	NumCells int
}

// NewAdd returns an add-method representation over n cells.
func NewAdd(spec CellSpec, cells int) Add {
	if cells < 1 {
		panic(fmt.Sprintf("device: add needs >=1 cell, got %d", cells))
	}
	return Add{Spec: spec, NumCells: cells}
}

// Name implements Representation.
func (a Add) Name() string { return "add" }

// Cells implements Representation.
func (a Add) Cells() int { return a.NumCells }

// MaxWeight implements Representation.
func (a Add) MaxWeight() int { return a.NumCells * a.Spec.MaxLevel() }

// EffectiveLevels implements Representation.
func (a Add) EffectiveLevels() int { return a.MaxWeight() + 1 }

// Encode implements Representation: the weight is split as evenly as
// possible (|a_i| all equal maximizes the Cauchy-inequality deviation gain,
// §7.2), with the remainder distributed one level at a time.
func (a Add) Encode(w int) []int {
	w = clampWeight(w, a.MaxWeight())
	base := w / a.NumCells
	rem := w % a.NumCells
	levels := make([]int, a.NumCells)
	for i := range levels {
		levels[i] = base
		if i < rem {
			levels[i]++
		}
	}
	return levels
}

// Decode implements Representation: unit coefficients.
func (a Add) Decode(conductances []float64) float64 {
	var v float64
	for _, g := range conductances {
		v += g
	}
	return v
}

// NormalizedDeviation implements Representation: σ·sqrt(n) over the range
// n·(2^b−1), i.e. σ/(sqrt(n)·(2^b−1)) — a sqrt(n) improvement per cell.
func (a Add) NormalizedDeviation(spec CellSpec) float64 {
	n := float64(a.NumCells)
	return spec.Sigma * math.Sqrt(n) / (n * float64(spec.MaxLevel()))
}

// ProgramWeight encodes w with rep, programs each cell with variation from
// rng, and returns the decoded (noisy) weight value. It is the single code
// path both the Monte-Carlo accuracy study (Figure 9) and the functional
// crossbar model use — once per weight per polarity on every programming
// pass, so for the two built-in methods it folds Encode, CellSpec.Program
// and Decode into one allocation-free loop: cell i's level is computed,
// programmed (one draw from rng, in cell order) and accumulated exactly as
// the composition would, so the value and the draws consumed are bit-
// identical to it (TestProgramWeightMatchesComposition).
func ProgramWeight(rep Representation, spec CellSpec, w int, rng *rand.Rand) float64 {
	var v float64
	switch r := rep.(type) {
	case Add:
		w = clampWeight(w, r.MaxWeight())
		base, rem := w/r.NumCells, w%r.NumCells
		draws := spec.draws(rng)
		for i := 0; i < r.NumCells; i++ {
			level := base
			if i < rem {
				level++
			}
			// spec.Program, with its draw test hoisted out of the loop.
			var noise float64
			if draws {
				noise = rng.NormFloat64() * spec.Sigma
			}
			v += spec.conductance(level, noise)
		}
	case Splice:
		w = clampWeight(w, r.MaxWeight())
		mask := r.Spec.Levels() - 1
		for i := 0; i < r.NumCells; i++ {
			v += spec.Program(w&mask, rng) * math.Pow(2, float64(r.Spec.Bits*i))
			w >>= uint(r.Spec.Bits)
		}
	default:
		levels := rep.Encode(w)
		gs := make([]float64, len(levels))
		for i, l := range levels {
			gs[i] = spec.Program(l, rng)
		}
		v = rep.Decode(gs)
	}
	return v
}

func clampWeight(w, max int) int {
	if w < 0 {
		return 0
	}
	if w > max {
		return max
	}
	return w
}
