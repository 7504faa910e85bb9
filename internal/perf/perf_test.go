package perf

import (
	"fmt"
	"math"
	"testing"

	"fpsa/internal/cgraph"
	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/prime"
	"fpsa/internal/synth"
)

// evalModel evaluates one zoo model at one duplication degree.
func evalModel(t *testing.T, name string, dup int, target Target) Report {
	t.Helper()
	g, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: dup}, target)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFigure7LatencyBars(t *testing.T) {
	// Per-PE computation/communication latency for VGG16 at the 64×
	// evaluation configuration (Figure 7): PRIME ~3064.7 comp + ~2×10⁴
	// comm; FP-PRIME comm 59.4; FPSA comp 156.4, comm 633.9.
	rPrime := evalModel(t, models.NameVGG16, 64, TargetPRIME)
	if math.Abs(rPrime.CompNSPerVMM-3064.7) > 0.1 {
		t.Errorf("PRIME comp = %v, want 3064.7", rPrime.CompNSPerVMM)
	}
	if rPrime.CommNSPerVMM < 1e4 || rPrime.CommNSPerVMM > 4e4 {
		t.Errorf("PRIME comm = %v ns, want ~2e4 (Figure 7)", rPrime.CommNSPerVMM)
	}
	rFP := evalModel(t, models.NameVGG16, 1, TargetFPPRIME)
	if math.Abs(rFP.CommNSPerVMM-59.4) > 1 {
		t.Errorf("FP-PRIME comm = %v, want 59.4", rFP.CommNSPerVMM)
	}
	rFPSA := evalModel(t, models.NameVGG16, 1, TargetFPSA)
	if math.Abs(rFPSA.CompNSPerVMM-156.4) > 0.5 {
		t.Errorf("FPSA comp = %v, want 156.4", rFPSA.CompNSPerVMM)
	}
	if math.Abs(rFPSA.CommNSPerVMM-633.9) > 7 {
		t.Errorf("FPSA comm = %v, want 633.9", rFPSA.CommNSPerVMM)
	}
}

func TestBoundsOrdering(t *testing.T) {
	// Peak ≥ spatial bound ≥ temporal bound ≥ real performance, for all
	// models and duplication degrees (§3's bound hierarchy).
	for _, name := range []string{models.NameLeNet, models.NameVGG17} {
		for _, dup := range []int{1, 4, 16} {
			r := evalModel(t, name, dup, TargetFPSA)
			if r.SpatialBoundOPS > r.PeakOPS*1.0001 {
				t.Errorf("%s dup %d: spatial %v > peak %v", name, dup, r.SpatialBoundOPS, r.PeakOPS)
			}
			if r.TemporalBoundOPS > r.SpatialBoundOPS*1.0001 {
				t.Errorf("%s dup %d: temporal %v > spatial %v", name, dup, r.TemporalBoundOPS, r.SpatialBoundOPS)
			}
			if r.PerfOPS > r.TemporalBoundOPS*1.0001 {
				t.Errorf("%s dup %d: real %v > temporal %v", name, dup, r.PerfOPS, r.TemporalBoundOPS)
			}
		}
	}
}

func TestSuperLinearScaling(t *testing.T) {
	// Figure 8: CNN performance grows super-linearly in area as the
	// duplication degree rises (utilization recovers), so perf ratio
	// must exceed area ratio.
	r1 := evalModel(t, models.NameVGG17, 1, TargetFPSA)
	r16 := evalModel(t, models.NameVGG17, 16, TargetFPSA)
	perfRatio := r16.PerfOPS / r1.PerfOPS
	areaRatio := r16.AreaMM2 / r1.AreaMM2
	if perfRatio < 8 {
		t.Errorf("perf ratio at 16× dup = %.2f, want ≥8", perfRatio)
	}
	if areaRatio > perfRatio {
		t.Errorf("area ratio %.2f ≥ perf ratio %.2f: not super-linear", areaRatio, perfRatio)
	}
}

func TestPRIMECommunicationBound(t *testing.T) {
	// Figure 2: PRIME's real performance saturates with more area while
	// FPSA keeps scaling; the gap at high duplication reaches two to
	// three orders of magnitude for VGG16-class reuse.
	rP1 := evalModel(t, models.NameVGG17, 1, TargetPRIME)
	rP64 := evalModel(t, models.NameVGG17, 64, TargetPRIME)
	rF64 := evalModel(t, models.NameVGG17, 64, TargetFPSA)
	primeScale := rP64.PerfOPS / rP1.PerfOPS
	if primeScale > 16 {
		t.Errorf("PRIME scaled %.1f× at 64× dup — bus bound missing", primeScale)
	}
	if gap := rF64.PerfOPS / rP64.PerfOPS; gap < 30 {
		t.Errorf("FPSA/PRIME gap at 64× dup = %.1f×, want ≫30", gap)
	}
}

func TestFPPRIMEBreaksCommBound(t *testing.T) {
	// Figure 6: FP-PRIME (FPSA routing + PRIME PEs) sits near its ideal
	// curve: communication adds <5% to its stage time.
	r := evalModel(t, models.NameVGG17, 16, TargetFPPRIME)
	if frac := r.CommNSPerVMM / r.CompNSPerVMM; frac > 0.05 {
		t.Errorf("FP-PRIME comm/comp = %.3f, want <0.05", frac)
	}
	if r.PerfOPS < 0.9*r.TemporalBoundOPS {
		t.Errorf("FP-PRIME real %v far from ideal %v", r.PerfOPS, r.TemporalBoundOPS)
	}
}

func TestMLPReplication(t *testing.T) {
	// MLPs have reuse degree 1: duplication becomes whole-model
	// replication and throughput scales linearly.
	r1 := evalModel(t, models.NameMLP, 1, TargetFPSA)
	r64 := evalModel(t, models.NameMLP, 64, TargetFPSA)
	if r64.Replicas != 64 {
		t.Errorf("Replicas = %d, want 64", r64.Replicas)
	}
	if ratio := r64.ThroughputSPS / r1.ThroughputSPS; math.Abs(ratio-64) > 1 {
		t.Errorf("MLP throughput ratio = %v, want 64", ratio)
	}
	// Bounds coincide for MLPs (no weight sharing ⇒ balanced workload,
	// Figure 8c): temporal equals spatial.
	if math.Abs(r64.TemporalBoundOPS-r64.SpatialBoundOPS)/r64.SpatialBoundOPS > 0.01 {
		t.Errorf("MLP temporal %v ≠ spatial %v", r64.TemporalBoundOPS, r64.SpatialBoundOPS)
	}
}

func TestEvaluateValidation(t *testing.T) {
	g, _ := models.ByName(models.NameMLP)
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: 0}, TargetFPSA); err == nil {
		t.Error("dup 0 accepted")
	}
	if _, err := Evaluate(Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: 1}, Target(99)); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestPrimeDensityConstant(t *testing.T) {
	if got := prime.ComputationalDensityOPSmm2(); math.Abs(got-prime.DensityPRIME)/prime.DensityPRIME > 0.001 {
		t.Errorf("PRIME density = %v, want %v", got, prime.DensityPRIME)
	}
}

// TestEvaluateBuildsNoNetlist: the model counts the block inventory
// (mapper.CountBlocks) instead of building the netlist to read it off. On
// VGG16 at duplication 16 an evaluation allocates 996 times, nearly all of
// it controller synthesis; the netlist alone has 3,181 block names.
func TestEvaluateBuildsNoNetlist(t *testing.T) {
	g, err := models.ByName("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: 16}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Evaluate(in, TargetFPSA); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("Evaluate(VGG16@16) allocates %v times, want ≤ 2000: is it building the netlist?", allocs)
	}
}

// TestFCChainLatencyClosedForm: a chain of reuse-1 fully connected layers
// at duplication 1 streams spike trains stage to stage with no buffer, so
// its latency is the critical path's depth in pipeline cycles plus one
// sampling window: (depth + Γ) · stageNS/Γ. An op-level schedule of such a
// chain ends at cycle depth + Γ − 1, so this is its makespan + 1
// (docs/ARCHITECTURE.md, "Decision recorded: the chip simulator goes").
func TestFCChainLatencyClosedForm(t *testing.T) {
	p := device.Params45nm
	gamma := float64(p.SamplingWindow())
	_, _, stageNS := FPSAStageNS(p, p.TypicalRouteHops)
	for _, dims := range [][]int{{8, 4}, {16, 24, 4}, {16, 48, 48, 4}, {600, 10}, {784, 500, 100, 10}} {
		g := cgraph.New(fmt.Sprint(dims))
		x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(dims[0])})
		for i, out := range dims[1:] {
			x = g.MustAdd(fmt.Sprintf("fc%d", i), cgraph.FC{Out: out}, x)
			x = g.MustAdd(fmt.Sprintf("relu%d", i), cgraph.ReLU{}, x)
		}
		co, err := synth.Synthesize(g, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if r := co.MaxReuse(); r != 1 {
			t.Fatalf("%v: max reuse %d, want 1", dims, r)
		}
		depth := make([]int, len(co.Groups))
		maxDepth := 0
		for gi, grp := range co.Groups {
			for _, u := range grp.Deps {
				depth[gi] = max(depth[gi], depth[u])
			}
			depth[gi]++
			maxDepth = max(maxDepth, depth[gi])
		}
		r, err := Evaluate(Input{Model: g, CoreOps: co, Params: p, Dup: 1}, TargetFPSA)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(maxDepth) + gamma
		if got := r.LatencyUS * 1e3 / (stageNS / gamma); math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v: latency %.15g pipeline cycles, want depth %d + Γ %g", dims, got, maxDepth, gamma)
		}
	}
}
