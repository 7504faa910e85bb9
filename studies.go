package fpsa

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpsa/internal/synth"
)

// unitFor maps an objective to its value unit in the rendering.
func unitFor(o Objective) string {
	switch o {
	case MinEnergy:
		return "uJ"
	case MaxThroughputPerChip:
		return "sps/chip"
	}
	return "us"
}

// autotuneStudy renders the compilation-autotuner artifact behind
// fpsa-bench's "autotune" experiment: LeNet — the benchmark model with
// real per-layer reuse structure — tuned at two PE envelopes for each
// objective, two oracle finalists placed & routed per search, reporting
// tuned-versus-uniform perf-model numbers and the search cost. All
// searches share one CompileCache, so a finalist whose shard assignment
// already compiled — in an earlier search or the same one — is a cache hit
// instead of a fresh place & route; the per-row hit/miss deltas make that
// reuse visible. Every value except "search ms" (the measured search
// wall-clock) is deterministic for the fixed seed. ctx bounds the searches.
func autotuneStudy(ctx context.Context) (string, error) {
	const (
		model  = "LeNet"
		refine = 2
		seed   = 3
	)
	m, err := LoadBenchmark(model)
	if err != nil {
		return "", err
	}
	cache := NewCompileCache(0)
	var b strings.Builder
	fmt.Fprintf(&b, "compilation autotuner (%s, refine %d, shared compile cache)\n", model, refine)
	fmt.Fprintf(&b, "  %-24s %-7s %-19s %-19s %-8s %-6s %-6s %-7s %-9s %s\n",
		"objective", "budget", "uniform", "tuned", "gain", "cands", "eval", "pruned", "cache h/m", "search ms")
	for _, budget := range []int{480, 700} {
		for _, obj := range []Objective{MinLatency, MinEnergy, MaxThroughputPerChip} {
			start := time.Now()
			_, rep, err := Autotune(ctx, m, obj,
				WithPEBudget(budget), WithAutotuneRefine(refine),
				WithCache(cache), WithSeed(seed))
			if err != nil {
				return "", fmt.Errorf("autotune %v at %d PEs: %w", obj, budget, err)
			}
			unit := unitFor(obj)
			fmt.Fprintf(&b, "  %-24s %-7d %-19s %-19s %-8s %-6d %-6d %-7d %-9s %.1f\n",
				obj, budget,
				fmt.Sprintf("%.4g %s", rep.BaselineValue, unit),
				fmt.Sprintf("%.4g %s", rep.TunedValue, unit),
				fmt.Sprintf("%+.1f%%", 100*rep.Improvement),
				rep.Candidates, rep.Evaluated, rep.Pruned,
				fmt.Sprintf("%d/%d", rep.CacheHits, rep.CacheMisses),
				float64(time.Since(start).Microseconds())/1e3)
		}
	}
	hits, misses := cache.Counters()
	fmt.Fprintf(&b, "  (uniform = best WithDuplication sweep inside the same envelope; cache total %d hit / %d miss across the sweep)\n",
		hits, misses)
	return b.String(), nil
}

// The reliability study's fixed shape: the per-cell stuck-fault
// probabilities swept, the fault seeds averaged per (rate, remap) cell,
// and the dataset/training seed that also anchors the fault seeds.
var faultStudyRates = []float64{0, 0.002, 0.005, 0.01, 0.02, 0.05}

const (
	faultStudyTrials = 5
	faultStudySeed   = 7
)

// faultStudyRow is one fault rate's Monte-Carlo means across the two
// compilation arms.
type faultStudyRow struct {
	// Rate is the per-cell stuck-fault probability.
	Rate float64
	// CellsRemap and CellsNoRemap are the mean residual stuck cells the
	// programmed crossbars actually carry — after spare-row/column
	// remapping, and with remapping disabled. Their gap is the fault
	// population the compiler steered around.
	CellsRemap   float64
	CellsNoRemap float64
	// AccRemap and AccNoRemap are mean classification accuracies on the
	// held-out split under each arm; their difference is the accuracy the
	// remapping recovers at this fault rate.
	AccRemap   float64
	AccNoRemap float64
}

// faultStudyResult reports the sweep. BaselineAcc is the fault-free
// deployment's accuracy on the same samples — the ceiling both arms
// degrade from; the rate-0 row must match it exactly (the
// zero-rate-equivalence invariant).
type faultStudyResult struct {
	Samples     int
	BaselineAcc float64
	Rows        []faultStudyRow
}

// String renders the result as the fpsa-bench "faults" artifact.
func (r faultStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault injection (MLP 16-24-4, %d samples, %d trials per rate, mode reference)\n",
		r.Samples, faultStudyTrials)
	fmt.Fprintf(&b, "  baseline accuracy %.4f (ideal devices)\n", r.BaselineAcc)
	fmt.Fprintf(&b, "  %-8s %-12s %-12s %-11s %-11s %s\n",
		"rate", "cells/remap", "cells/none", "acc/remap", "acc/none", "recovered")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8.3g %-12.1f %-12.1f %-11.4f %-11.4f %+.4f\n",
			row.Rate, row.CellsRemap, row.CellsNoRemap, row.AccRemap, row.AccNoRemap, row.AccRemap-row.AccNoRemap)
	}
	b.WriteString("  (same seed ⇒ same faults in every mode and at every worker count, see docs/INVARIANTS.md)\n")
	return b.String()
}

// faultStudy trains and deploys the standard MLP workload under a sweep
// of stuck-cell fault rates and measures classification accuracy on the
// held-out split with the compiler's spare-row/column remapping on and
// off, Monte-Carlo over faultStudyTrials fault seeds per rate. Execution
// runs ModeReference, so a trial's accuracy is a deterministic function
// of (training seed, fault seed, remap arm) — the sweep isolates fault
// damage from programming noise. It backs fpsa-bench's "faults"
// experiment. ctx bounds the compiles and is checked between trials.
func faultStudy(ctx context.Context) (faultStudyResult, error) {
	var res faultStudyResult
	ds := SyntheticDataset(faultStudySeed, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := TrainMLP(faultStudySeed, []int{16, 24, 4}, train, 30)
	if err != nil {
		return res, err
	}
	res.Samples = len(test.X)

	// One trial: compile the model under the given fault scenario and
	// classify the held-out split, returning accuracy and the residual
	// stuck-cell count the programmed crossbars carry.
	trial := func(fm *FaultMap) (acc float64, cells int, err error) {
		compileOpts := []Option{WithWeightSource(net.WeightSource()), WithSeed(faultStudySeed)}
		if fm != nil {
			compileOpts = append(compileOpts, WithFaultMap(*fm))
		}
		d, err := Compile(ctx, net.Model(), compileOpts...)
		if err != nil {
			return 0, 0, err
		}
		sn, err := d.NewNet(nil)
		if err != nil {
			return 0, 0, err
		}
		ex, err := synth.NewExecutor(sn.prog, synth.RunOptions{Mode: synth.ModeReference, Faults: sn.faults})
		if err != nil {
			return 0, 0, err
		}
		window := sn.Window()
		correct := 0
		for i, x := range test.X {
			out, err := ex.Run(synth.QuantizeInput(x, window))
			if err != nil {
				return 0, 0, err
			}
			if synth.Argmax(out) == test.Y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(test.X)), ex.FaultedCells(), nil
	}

	if res.BaselineAcc, _, err = trial(nil); err != nil {
		return res, err
	}
	for _, rate := range faultStudyRates {
		row := faultStudyRow{Rate: rate}
		for t := 0; t < faultStudyTrials; t++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			seed := faultStudySeed + int64(t)*1009 + 1
			accR, cellsR, err := trial(&FaultMap{Rate: rate, Seed: seed})
			if err != nil {
				return res, err
			}
			accN, cellsN, err := trial(&FaultMap{Rate: rate, Seed: seed, NoRemap: true})
			if err != nil {
				return res, err
			}
			row.AccRemap += accR
			row.AccNoRemap += accN
			row.CellsRemap += float64(cellsR)
			row.CellsNoRemap += float64(cellsN)
		}
		row.AccRemap /= faultStudyTrials
		row.AccNoRemap /= faultStudyTrials
		row.CellsRemap /= faultStudyTrials
		row.CellsNoRemap /= faultStudyTrials
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
