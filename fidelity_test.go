package fpsa

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/experiments"
	"fpsa/internal/synth"
)

var update = flag.Bool("update", false, "rewrite docs/FIDELITY.md from TestFidelity's rows and docs/ARCHITECTURE.md's reachability block from TestUnreachedFunctions")

const fidelityPath = "docs/FIDELITY.md"

// fidelityRow is one line of the scoreboard: a quantity of one paper
// artifact or study and our value for it. A paper row also carries the
// published value, the two-sided band ours/paper must stay in, and the
// cause of any gap over 5 %; a study row has paper 0 and is pinned by
// docs/FIDELITY.md alone.
type fidelityRow struct {
	artifact, quantity string
	format             string // verb for paper and ours, at the printed precision
	paper, ours        float64
	lo, hi             float64 // band on ours/paper
	hops               string  // where the row's communication delay comes from
	gap                string
}

// studyRow is a row with no paper value, so with no band or gap.
func studyRow(artifact, quantity, format string, ours float64, hops string) fidelityRow {
	return fidelityRow{artifact: artifact, quantity: quantity, format: format, ours: ours, hops: hops}
}

// typicalHops is the hop source of every row whose communication delay is
// the calibrated Params.TypicalRouteHops.
var typicalHops = fmt.Sprintf("TypicalRouteHops (%d)", device.Params45nm.TypicalRouteHops)

// TestFidelity computes every scoreboard row, holds each paper row to its
// band and demands a gap reason beyond 5 %, and compares the rendering
// with the committed docs/FIDELITY.md (-update rewrites it).
func TestFidelity(t *testing.T) {
	ctx := context.Background()
	rows := paperRows(t)
	for _, r := range rows {
		ratio := r.ours / r.paper
		switch {
		case ratio < r.lo || ratio > r.hi:
			t.Errorf("%s · %s: ours/paper %.4f left its band %g–%g", r.artifact, r.quantity, ratio, r.lo, r.hi)
		case r.lo < 0.9*ratio || r.hi > 1.1*ratio:
			t.Errorf("%s · %s: band %g–%g is wider than ±10 %% around ours/paper %.4f", r.artifact, r.quantity, r.lo, r.hi, ratio)
		}
		if math.Abs(ratio-1) > 0.05 && r.gap == "" {
			t.Errorf("%s · %s: ours/paper %.4f is %.1f %% off the paper with no gap reason", r.artifact, r.quantity, ratio, 100*math.Abs(ratio-1))
		}
	}
	rows = append(rows, faultRows(ctx, t)...)
	rows = append(rows, autotuneRows(ctx, t)...)
	rows = append(rows, ablationRows(ctx, t)...)
	rows = append(rows, routedHopRows(ctx, t)...)

	got := renderFidelity(rows)
	if *update {
		if err := os.WriteFile(fidelityPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fidelityPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	stale := false
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			stale = true
			t.Errorf("%s:%d differs\n committed: %s\n computed:  %s", fidelityPath, i+1, w, g)
		}
	}
	if stale {
		t.Errorf("%s is stale; go test -run TestFidelity -update . rewrites it", fidelityPath)
	}
}

// paperRows runs the drivers behind the paper's §6 artifacts and the §7.1
// discussion, each once, and pairs their numbers with the published ones.
func paperRows(t *testing.T) []fidelityRow {
	t.Helper()
	p := device.Params45nm
	pe := experiments.Table1(p)[0]
	t2 := experiments.Table2(p)
	t3, err := experiments.Table3(64)
	if err != nil {
		t.Fatal(err)
	}
	byModel := make(map[string]experiments.Table3Row)
	for _, r := range t3 {
		byModel[r.Model] = r
	}
	vgg, mlp := byModel["VGG16"], byModel["MLP-500-100"]
	f6, err := experiments.Figure6(nil)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := experiments.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	bars := f7[len(f7)-1] // PRIME, FP-PRIME, FPSA
	f8, err := experiments.Figure8(nil)
	if err != nil {
		t.Fatal(err)
	}
	perfGain, areaGain := experiments.Figure8Geomeans(f8, experiments.Figure8Dups)
	f9, err := experiments.Figure9(experiments.Figure9Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := experiments.AblationTransmission()
	if err != nil {
		t.Fatal(err)
	}
	window, n := float64(p.SamplingWindow()), float64(p.IOBits)

	const (
		perfGap = "perf gain ≈ duplication: the mapper balances every group to ⌈maxReuse/dup⌉ iterations, and the stage is the constant 6-hop one, so a larger chip costs no extra wire delay"
		areaGap = "the PE copies that buy the near-linear perf gain above; the paper's sub-linear perf needs fewer"
	)
	return []fidelityRow{
		{"Table 1", "PE area (µm²)", "%.3f", 22051.414, pe.AreaUM2, 0.999, 1.001, "none", ""},
		{"Table 1", "PE latency (ns)", "%.3f", 2.443, pe.LatencyNS, 0.999, 1.001, "none", ""},
		{"Table 2", "PE area vs PRIME (%)", "%.2f", -36.63, t2.AreaReductionPct, 0.99, 1.01, "none", ""},
		{"Table 2", "VMM latency vs PRIME (%)", "%.2f", -94.90, t2.LatencyReductPct, 0.99, 1.01, "none", ""},
		{"Table 2", "computational density vs PRIME (×)", "%.2f", 30.92, t2.DensityGain, 0.99, 1.01, "none", ""},
		{"Table 3 @64×", "VGG16 throughput (samples/s)", "%.4g", 2400, vgg.ThroughputSPS, 0.80, 0.88, typicalHops,
			"the 784-iteration bottleneck runs at the communication-bound 634 ns stage of 6 hops; 5 hops would give 2414"},
		{"Table 3 @64×", "VGG16 latency (µs)", "%.4g", 671.8, vgg.LatencyUS, 0.74, 0.81, typicalHops,
			"pipeline fill: bufferless stages start one cycle after their producer, so fill is 21.6 µs of our 518.6; the paper's 671.8 µs less its 1/2.4k s stage implies ≈ 255 µs"},
		{"Table 3 @64×", "VGG16 area (mm²)", "%.2f", 68.09, vgg.AreaMM2, 0.98, 1.08, "none", ""},
		{"Table 3 @64×", "MLP-500-100 throughput (samples/s)", "%.4g", 129.7e6, mlp.ThroughputSPS, 0.74, 0.82, typicalHops,
			"64 whole-model replicas, each one sample per communication-bound 634 ns stage of 6 hops; the paper's figure needs a 493 ns stage (≈ 4.7 hops)"},
		{"Table 3 @64×", "MLP-500-100 area (mm²)", "%.2f", 28.23, mlp.AreaMM2, 0.55, 0.61, "none",
			"our mapper packs 784-500-100-10 into 11 PEs + 2 CLBs per replica; the paper's 28.23 mm² is exactly 1,280 PEs, 20 per replica"},
		{"Fig. 6", "FPSA/PRIME speedup at matched area (×)", "%.0f", 1000, f6.SpeedupAtMatchedArea, 0.53, 0.59, typicalHops,
			"the sweep stops at 1024× duplication (FPSA 368 mm²) while FPSA still doubles per step against PRIME's bus-bound plateau; the paper's is an \"up to\" read off its plot"},
		{"Fig. 7", "FPSA computation per VMM (ns)", "%.1f", 156.4, bars.CompNS, 0.99, 1.01, "none", ""},
		{"Fig. 7", "FPSA communication per VMM (ns)", "%.1f", 633.9, bars.CommNS, 0.99, 1.01, typicalHops, ""},
		{"Fig. 8", "perf geomean @4× (×)", "%.2f", 3.06, perfGain[4], 1.25, 1.37, typicalHops, perfGap},
		{"Fig. 8", "perf geomean @16× (×)", "%.2f", 10.88, perfGain[16], 1.40, 1.54, typicalHops, perfGap},
		{"Fig. 8", "perf geomean @64× (×)", "%.2f", 38.65, perfGain[64], 1.57, 1.73, typicalHops, perfGap},
		{"Fig. 8", "area geomean @4× (×)", "%.2f", 1.25, areaGain[4], 0.98, 1.07, "none", ""},
		{"Fig. 8", "area geomean @16× (×)", "%.2f", 1.85, areaGain[16], 1.02, 1.12, "none", areaGap},
		{"Fig. 8", "area geomean @64× (×)", "%.2f", 3.73, areaGain[64], 1.07, 1.18, "none", areaGap},
		{"Fig. 9", "PRIME config: splice, 2 cells (normalized accuracy)", "%.3f", 0.70, f9.PRIMEConfig.SpliceAcc, 0.95, 1.05, "none", ""},
		{"Fig. 9", "FPSA config: add, 16 cells (normalized accuracy)", "%.3f", 1.00, f9.FPSAConfig.AddAcc, 0.95, 1.05, "none", ""},
		{"§7.1", "NBD fill cycles, trains (1)", "%.0f", 1, float64(tx.TrainFillCycles), 1, 1, "none", ""},
		{"§7.1", "NBD fill cycles, counts (2ⁿ)", "%.0f", window, float64(tx.CountFillCycles), 1, 1, "none", ""},
		{"§7.1", "buffer bits per signal, trains (1)", "%.0f", 1, float64(tx.TrainBufferBits), 1, 1, "none", ""},
		{"§7.1", "buffer bits per signal, counts (n)", "%.0f", n, float64(tx.CountBufferBits), 1, 1, "none", ""},
		{"§7.1", "wire bits per signal, trains (2ⁿ)", "%.0f", window, float64(tx.TrainWireBits), 1, 1, "none", ""},
		{"§7.1", "wire bits per signal, counts (n)", "%.0f", n, float64(tx.CountWireBits), 1, 1, "none", ""},
	}
}

// The reliability study's fixed shape: the per-cell stuck-fault
// probabilities swept, the fault seeds averaged per (rate, remap) cell,
// and the dataset/training seed that also anchors the fault seeds.
var faultRates = []float64{0, 0.002, 0.005, 0.01, 0.02, 0.05}

const (
	faultTrials = 5
	faultSeed   = 7
)

// faultRows trains and deploys the standard MLP workload under a sweep of
// stuck-cell fault rates and measures classification accuracy on the
// held-out split with the compiler's spare-row/column remapping on and
// off, Monte-Carlo over faultTrials fault seeds per rate. Execution runs
// ModeReference, so a trial's accuracy is a deterministic function of
// (training seed, fault seed, remap arm) — the sweep isolates fault damage
// from programming noise. Remapping must leave no residual stuck cell and
// the fault-free accuracy at every rate, and the rate-0 row must match the
// fault-free deployment exactly (the zero-rate-equivalence invariant).
func faultRows(ctx context.Context, t *testing.T) []fidelityRow {
	t.Helper()
	ds := SyntheticDataset(faultSeed, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := TrainMLP(faultSeed, []int{16, 24, 4}, train, 30)
	if err != nil {
		t.Fatal(err)
	}

	// One trial: compile the model under the given fault option, if any,
	// and classify the held-out split, returning accuracy and the residual
	// stuck-cell count the programmed crossbars carry.
	trial := func(faults ...Option) (acc, cells float64) {
		t.Helper()
		compileOpts := append([]Option{WithWeightSource(net.WeightSource()), WithSeed(faultSeed)}, faults...)
		d, err := Compile(ctx, net.Model(), compileOpts...)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := d.NewNet(nil)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := synth.NewExecutor(sn.prog, synth.RunOptions{Mode: synth.ModeReference, Faults: sn.faults})
		if err != nil {
			t.Fatal(err)
		}
		classes := make([]int, len(test.X))
		if err := ex.RunFeatures(classes, test.X, true); err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i, c := range classes {
			if c == test.Y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(test.X)), float64(ex.FaultedCells())
	}

	const study = "fault sweep"
	baseline, _ := trial()
	rows := []fidelityRow{
		studyRow(study, "held-out samples (MLP 16-24-4, mode reference)", "%.0f", float64(len(test.X)), "none"),
		studyRow(study, "baseline accuracy (ideal devices)", "%.4f", baseline, "none"),
	}
	for _, rate := range faultRates {
		var accR, accN, cellsR, cellsN float64
		for trialN := range faultTrials {
			seed := faultSeed + int64(trialN)*1009 + 1
			a, c := trial(WithFaultModel(rate, seed))
			accR, cellsR = accR+a, cellsR+c
			a, c = trial(withFaultModelNoRemap(rate, seed))
			accN, cellsN = accN+a, cellsN+c
		}
		accR, accN, cellsR, cellsN = accR/faultTrials, accN/faultTrials, cellsR/faultTrials, cellsN/faultTrials
		if cellsR != 0 || accR != baseline {
			t.Errorf("rate %v with remap: %v residual cells at accuracy %v, want 0 at the baseline's %v", rate, cellsR, accR, baseline)
		}
		if rate == 0 && (cellsN != 0 || accN != baseline) {
			t.Errorf("rate 0 without remap: %v cells at accuracy %v differs from the fault-free baseline", cellsN, accN)
		}
		at := fmt.Sprintf("rate %g: ", rate)
		rows = append(rows,
			studyRow(study, at+"residual stuck cells, remap", "%.1f", cellsR, "none"),
			studyRow(study, at+"residual stuck cells, no remap", "%.1f", cellsN, "none"),
			studyRow(study, at+"accuracy, remap", "%.4f", accR, "none"),
			studyRow(study, at+"accuracy, no remap", "%.4f", accN, "none"),
			studyRow(study, at+"accuracy recovered by remap", "%+.4f", accR-accN, "none"),
		)
	}
	return rows
}

// autotuneRows runs the compilation autotuner on LeNet — the benchmark
// model with real per-layer reuse structure — at two PE envelopes for each
// objective, two oracle finalists placed & routed per search, and records
// the tuned and uniform perf-model values and the search's cost. All
// searches share one CompileCache, so a finalist whose shard assignment
// already compiled, in an earlier search or the same one, is a cache hit
// instead of a fresh place & route. Every value is deterministic for the
// fixed seed; wall-clock is not recorded.
func autotuneRows(ctx context.Context, t *testing.T) []fidelityRow {
	t.Helper()
	const (
		model  = "LeNet"
		refine = 2
		seed   = 3
	)
	m, err := LoadBenchmark(model)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache(0)
	const study = "autotune (LeNet)"
	var rows []fidelityRow
	for _, budget := range []int{480, 700} {
		for _, o := range []struct {
			obj        Objective
			unit, hops string
		}{
			{MinLatency, "µs", typicalHops},
			{MinEnergy, "µJ", "none"},
			{MaxThroughputPerChip, "samples/s per chip", typicalHops},
		} {
			_, rep, err := Autotune(ctx, m, o.obj,
				WithPEBudget(budget), WithAutotuneRefine(refine),
				WithCache(cache), WithSeed(seed))
			if err != nil {
				t.Fatalf("autotune %v at %d PEs: %v", o.obj, budget, err)
			}
			at := fmt.Sprintf("%v, %d PEs: ", o.obj, budget)
			rows = append(rows,
				studyRow(study, at+"uniform ("+o.unit+")", "%.4g", rep.BaselineValue, o.hops),
				studyRow(study, at+"tuned ("+o.unit+")", "%.4g", rep.TunedValue, o.hops),
				studyRow(study, at+"gain", "%+.1f%%", 100*rep.Improvement, o.hops),
				studyRow(study, at+"candidates", "%.0f", float64(rep.Candidates), o.hops),
				studyRow(study, at+"evaluated", "%.0f", float64(rep.Evaluated), o.hops),
				studyRow(study, at+"pruned", "%.0f", float64(rep.Pruned), o.hops),
				studyRow(study, at+"cache hits", "%.0f", float64(rep.CacheHits), "none"),
				studyRow(study, at+"cache misses", "%.0f", float64(rep.CacheMisses), "none"),
			)
		}
	}
	hits, misses := cache.Counters()
	return append(rows,
		studyRow(study, "shared cache hits, whole sweep", "%.0f", float64(hits), "none"),
		studyRow(study, "shared cache misses, whole sweep", "%.0f", float64(misses), "none"),
	)
}

// ablationRows records the two ablations with no paper value: LeNet's
// smallest routable channel width and the §7.3 heterogeneous-PE area
// saving per model at 64×.
func ablationRows(ctx context.Context, t *testing.T) []fidelityRow {
	t.Helper()
	cw, err := experiments.AblationChannelWidth(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := experiments.AblationHeteroPEs(64)
	if err != nil {
		t.Fatal(err)
	}
	rows := []fidelityRow{
		studyRow("channel width", "LeNet minimum routable width (tracks)", "%.0f", float64(cw.MinWidth), "none"),
	}
	for _, r := range hetero {
		rows = append(rows, studyRow("hetero PEs (§7.3)", r.Model+" area saving at 64× (%)", "%.1f", r.AreaSavingPc, "none"))
	}
	return rows
}

// routedHopRows places and routes five designs at seed 1 and records what
// routing measures of them: the chip side, the mean and max routed hops,
// and the hops of the bottleneck stage's critical net — the longest routed
// net with a block of a bottleneck group (one at the allocation's most
// iterations) at either end. Last comes the least-squares line of mean hops
// against chip side over the five designs, with its RMS residual and the
// range of sides it was fitted on. These are the measured values the
// calibrated TypicalRouteHops stands in for.
func routedHopRows(ctx context.Context, t *testing.T) []fidelityRow {
	t.Helper()
	const study = "routed hops (seed 1)"
	var rows []fidelityRow
	var sides, means []float64
	for _, c := range []struct {
		model string
		dup   int
	}{{"MLP-500-100", 1}, {"LeNet", 1}, {"LeNet", 16}, {"CIFAR-VGG17", 1}, {"CIFAR-VGG17", 4}} {
		m, err := LoadBenchmark(c.model)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compile(ctx, m, WithDuplication(c.dup), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.PlaceAndRoute(ctx)
		if err != nil {
			t.Fatalf("%s@%d: %v", c.model, c.dup, err)
		}
		at := fmt.Sprintf("%s@%d: ", c.model, c.dup)
		rows = append(rows,
			studyRow(study, at+"chip side", "%.0f", float64(stats.ChipSide), "none"),
			studyRow(study, at+"mean hops", "%.3f", stats.MeanHops, "none"),
			studyRow(study, at+"max hops", "%.0f", float64(stats.MaxHops), "none"),
			studyRow(study, at+"bottleneck stage's critical net hops", "%.0f", float64(bottleneckNetHops(t, d)), "none"),
		)
		sides = append(sides, float64(stats.ChipSide))
		means = append(means, stats.MeanHops)
	}
	n := float64(len(sides))
	var sx, sy, sxx, sxy float64
	for i, x := range sides {
		sx, sy, sxx, sxy = sx+x, sy+means[i], sxx+x*x, sxy+x*means[i]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	icept := (sy - slope*sx) / n
	var ss float64
	for i, x := range sides {
		r := means[i] - (icept + slope*x)
		ss += r * r
	}
	fit := fmt.Sprintf("least squares of mean hops on chip side over sides %.0f–%.0f: ", slices.Min(sides), slices.Max(sides))
	return append(rows,
		studyRow(study, fit+"slope (hops per side)", "%.4f", slope, "none"),
		studyRow(study, fit+"intercept (hops)", "%.3f", icept, "none"),
		studyRow(study, fit+"RMS residual (hops)", "%.3f", math.Sqrt(ss/n), "none"),
	)
}

// bottleneckNetHops returns the routed hops of the longest net with a
// block of a bottleneck group at either end, on a one-chip deployment
// that has been placed and routed.
func bottleneckNetHops(t *testing.T, d *Deployment) int {
	t.Helper()
	if len(d.shards) != 1 {
		t.Fatalf("%d chips, want 1", len(d.shards))
	}
	sh := d.shards[0]
	nl, err := d.shardNetlist(sh)
	if err != nil {
		t.Fatal(err)
	}
	top := sh.alloc.MaxIterations()
	inBottleneck := func(block int) bool {
		g := nl.Blocks[block].GroupID
		return g >= 0 && sh.alloc.Iterations[g] == top
	}
	hops := 0
	for i, net := range nl.Nets {
		if inBottleneck(net.Src) || slices.ContainsFunc(net.Sinks, inBottleneck) {
			hops = max(hops, sh.artifacts.Route.NetHops[i])
		}
	}
	return hops
}

const fidelityHeader = `# Fidelity scoreboard

The paper's evaluation numbers next to ours, and the studies' values, one
row each. ` + "`TestFidelity`" + ` (fidelity_test.go) computes every row, checks it
and fails when this file differs from what it computed;
` + "`go test -run TestFidelity -update .`" + ` rewrites it. Do not edit by hand.
The simulated-clock rows come from the analytic model and are checked by
no cycle simulator; ARCHITECTURE.md, "Decision recorded: the chip simulator
goes", says why.

- **Band:** the two-sided interval ours/paper must stay in, at most ±10 %
  around the recorded ratio.
- **Gap:** the cause, on every row more than 5 % off the paper.
- **Hops:** where a row's communication delay comes from.
  ` + "`TypicalRouteHops (n)`" + ` is the calibrated constant, on perf-oracle rows
  that charge communication; ` + "`none`" + ` is a row that charges none.
- Study rows have no paper value; this file pins them.
`

// renderFidelity renders the rows as docs/FIDELITY.md: the paper rows,
// then the study rows.
func renderFidelity(rows []fidelityRow) string {
	var b strings.Builder
	b.WriteString(fidelityHeader)
	b.WriteString("\n## Paper rows\n\n")
	b.WriteString("| Artifact | Quantity | Paper | Ours | Ours/paper | Band | Hops | Gap |\n")
	b.WriteString("| --- | --- | --- | --- | --- | --- | --- | --- |\n")
	for _, r := range rows {
		if r.paper != 0 {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.4f | %g–%g | %s | %s |\n", r.artifact, r.quantity,
				fmt.Sprintf(r.format, r.paper), fmt.Sprintf(r.format, r.ours), r.ours/r.paper, r.lo, r.hi, r.hops, r.gap)
		}
	}
	b.WriteString("\n## Study rows\n\n")
	b.WriteString("| Study | Quantity | Ours | Hops |\n")
	b.WriteString("| --- | --- | --- | --- |\n")
	for _, r := range rows {
		if r.paper == 0 {
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.artifact, r.quantity, fmt.Sprintf(r.format, r.ours), r.hops)
		}
	}
	return b.String()
}
