// Package perf is the performance model behind the paper's evaluation: it
// combines the synthesized core-op graph, the mapper's allocation, the
// fabric's block costs and the routed (or estimated) communication delays
// into throughput, latency, area, and the three analytic bounds of §3 —
// peak performance, utilization bounds (spatial and temporal), and the
// communication bound.
//
// Timing model (per §4.2, §7.1):
//
//   - FPSA streams spike trains; a pipeline stage's effective cycle is
//     max(PE clock, hop delay of its routed path), so one VMM takes
//     Γ·max(2.443 ns, hops·1.651 ns) — the Figure 7 comp/comm bars.
//   - FP-PRIME computes a full VMM then ships 6-bit counts over the FPSA
//     fabric: T = VMM + 6·hops·hopDelay.
//   - PRIME computes then contends for the shared memory bus:
//     T = VMM + bits·active/bandwidth.
//
// Stage time is iterations × T; throughput is one sample per bottleneck
// stage; latency accumulates along the group graph's critical path.
package perf

import (
	"fmt"

	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/mapper"
	"fpsa/internal/prime"
	"fpsa/internal/shard"
)

// Target selects the architecture being modeled.
type Target int

// Evaluation targets.
const (
	TargetFPSA Target = iota
	TargetFPPRIME
	TargetPRIME
)

// String renders the target.
func (t Target) String() string {
	switch t {
	case TargetFPSA:
		return "FPSA"
	case TargetFPPRIME:
		return "FP-PRIME"
	case TargetPRIME:
		return "PRIME"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// Input bundles everything one evaluation needs.
type Input struct {
	// Model supplies per-sample op counts (Table 3 accounting).
	Model *cgraph.Graph
	// CoreOps is the synthesized group graph.
	CoreOps *coreop.Graph
	// Params are the 45 nm constants.
	Params device.Params
	// Dup is the model duplication degree (§5.2).
	Dup int
	// Assign, when non-empty, is an explicit per-group duplication vector
	// (one entry per CoreOps group, each ≥ 1, clamped to that group's
	// reuse degree). It overrides the uniform Dup-derived allocation and
	// is how the autotuner scores per-layer candidates; Dup then only
	// sets the whole-model replica count (mapper.Allocation.Replicas).
	// Empty keeps the classic uniform allocation bit-exact.
	Assign []int
	// Hops is the mean routed hop count for FPSA-fabric targets; 0 uses
	// Params.TypicalRouteHops. The constant stands in for every chip size,
	// though routed means grow with it: 3.4 hops for MLP-500-100 on a 5×5
	// chip, 4.9 for CIFAR-VGG17 at dup 8 on a 20×20 one.
	Hops int
	// Bus is PRIME's memory bus (zero value uses prime.DefaultBus).
	Bus prime.Bus
	// CutWidths, when non-empty, describes a sharded multi-chip
	// deployment: per inter-chip link, the signal values crossing it per
	// sample. Each link's transfer is charged into latency, and the
	// busiest link becomes a pipeline stage that can bound throughput.
	CutWidths []int
	// Link models the inter-chip interconnect (zero value =
	// shard.DefaultLink with the params' IOBits per signal).
	Link shard.Link
}

// Report is one evaluation result.
type Report struct {
	Name   string
	Target Target
	Dup    int

	PEs, SMBs, CLBs int
	// Replicas is the whole-model sample-parallel replication applied
	// when duplication saturates every group's reuse degree (MLPs).
	Replicas int

	AreaMM2       float64
	ThroughputSPS float64 // samples per second
	LatencyUS     float64 // single-sample pipeline latency
	PerfOPS       float64 // model ops × throughput
	DensityOPSmm2 float64

	// Analytic bounds (§3), in OPS.
	PeakOPS          float64
	SpatialBoundOPS  float64
	TemporalBoundOPS float64

	// Figure 7 bars: per-VMM computation and communication latency.
	CompNSPerVMM float64
	CommNSPerVMM float64

	// Chips is the deployment's chip count (1 unless CutWidths sharded
	// it); LinkNSPerSample is the summed per-sample inter-chip transfer
	// time charged into latency.
	Chips           int
	LinkNSPerSample float64

	// Energy model (FPSA-fabric targets only; zero for PRIME, whose
	// per-access energies the paper does not publish).
	Energy  EnergyBreakdown
	PowerMW float64
}

// Evaluate runs the model for one target.
func Evaluate(in Input, target Target) (Report, error) {
	if in.Dup < 1 {
		return Report{}, fmt.Errorf("perf: duplication degree %d", in.Dup)
	}
	p := in.Params
	alloc, err := allocFor(in)
	if err != nil {
		return Report{}, err
	}
	hops := in.Hops
	if hops <= 0 {
		hops = p.TypicalRouteHops
	}
	bus := in.Bus
	if bus.BandwidthBitsPerNS <= 0 {
		bus = prime.DefaultBus
	}

	var compNS, commNS, stageNS float64 // per-VMM latencies
	switch target {
	case TargetFPSA:
		compNS, commNS, stageNS = FPSAStageNS(p, hops)
	case TargetFPPRIME:
		compNS = prime.PE.VMMLatencyNS
		commNS = float64(p.IOBits*hops) * p.WireDelayPerHopNS
		stageNS = compNS + commNS
	case TargetPRIME:
		compNS = prime.PE.VMMLatencyNS
		commNS = bus.CommLatencyNS(activePEs(in.CoreOps, alloc))
		stageNS = compNS + commNS
	default:
		return Report{}, fmt.Errorf("perf: unknown target %v", target)
	}

	replicas := alloc.Replicas
	rep := Report{
		Name:         in.CoreOps.Name,
		Target:       target,
		Dup:          in.Dup,
		Replicas:     replicas,
		CompNSPerVMM: compNS,
		CommNSPerVMM: commNS,
	}

	// Block inventory and area.
	switch target {
	case TargetFPSA, TargetFPPRIME:
		// The inventory of the whole-model netlist, counted rather than
		// built: area and controller energy need how many blocks there
		// are, not how they are wired.
		pes, smbs, clbs, err := mapper.CountBlocks(in.CoreOps, alloc, p)
		if err != nil {
			return Report{}, err
		}
		rep.PEs, rep.SMBs, rep.CLBs = pes*replicas, smbs*replicas, clbs*replicas
		peArea := p.PETotal.AreaUM2
		if target == TargetFPPRIME {
			peArea = prime.PE.AreaUM2
		}
		rep.AreaMM2 = (float64(rep.PEs)*peArea +
			float64(rep.SMBs)*p.SMB.AreaUM2 +
			float64(rep.CLBs)*p.CLB.AreaUM2) * 1e-6
		if target == TargetFPSA {
			rep.Energy = energyPerSample(in.CoreOps, alloc, clbs, p)
		}
	case TargetPRIME:
		rep.PEs = alloc.TotalPEs * replicas
		rep.AreaMM2 = float64(rep.PEs) * prime.PE.AreaUM2 * 1e-6
	}

	// Inter-chip links of a sharded deployment: each link's per-sample
	// transfer adds pipeline-fill latency, and the busiest link is a
	// pipeline stage of its own that can bound throughput — leaving the
	// die costs serialization latency plus bandwidth time, unlike the
	// on-fabric wires already inside stageNS.
	rep.Chips = 1 + len(in.CutWidths)
	var maxLinkNS float64
	if len(in.CutWidths) > 0 {
		link := in.Link
		if link.SignalBits <= 0 {
			link.SignalBits = p.IOBits
		}
		for _, w := range in.CutWidths {
			t := link.TransferNS(w)
			rep.LinkNSPerSample += t
			if t > maxLinkNS {
				maxLinkNS = t
			}
		}
	}

	// Throughput and latency. A sample's latency is the pipeline fill
	// along the critical path plus the bottleneck stage's full
	// iteration drain. Fill cost per stage depends on the connection:
	// bufferless NBD chaining (both sides non-time-multiplexed, FPSA's
	// spike-train streaming, §7.1) starts the consumer one effective
	// cycle after its producer; buffered stages wait a full stage time.
	// FP-PRIME and PRIME transmit counts after the whole VMM, so every
	// stage fills fully.
	maxIter := float64(alloc.MaxIterations())
	bottleneckNS := maxIter * stageNS
	if maxLinkNS > bottleneckNS {
		bottleneckNS = maxLinkNS
	}
	rep.ThroughputSPS = float64(replicas) / (bottleneckNS * 1e-9)
	fillCycleNS := stageNS
	if target == TargetFPSA {
		fillCycleNS = stageNS / float64(p.SamplingWindow()) // one effective pipeline cycle
	}
	rep.LatencyUS = (criticalFillNS(in.CoreOps, alloc, stageNS, fillCycleNS) + bottleneckNS + rep.LinkNSPerSample) * 1e-3
	rep.PerfOPS = float64(in.Model.TotalOps()) * rep.ThroughputSPS
	if rep.AreaMM2 > 0 {
		rep.DensityOPSmm2 = rep.PerfOPS / rep.AreaMM2
	}
	rep.PowerMW = rep.Energy.TotalUJ() * rep.ThroughputSPS * 1e-3

	// Bounds. Peak and the utilization bounds assume ideal communication
	// (stage = comp only).
	opsPerVMM := float64(p.OpsPerVMM())
	rep.PeakOPS = float64(rep.PEs) * opsPerVMM / (compNS * 1e-9)
	var usefulPerVMMSum float64 // Σ over PE copies of useful ops per VMM
	for gi, grp := range in.CoreOps.Groups {
		usefulPerVMMSum += float64(alloc.Dup[gi]) * 2 * float64(grp.UsefulWeights)
	}
	rep.SpatialBoundOPS = float64(replicas) * usefulPerVMMSum / (compNS * 1e-9)
	rep.TemporalBoundOPS = float64(in.Model.TotalOps()) * float64(replicas) / (maxIter * compNS * 1e-9)
	return rep, nil
}

// FPSAStageNS is FPSA's per-VMM stage time for a routed path of hops
// wire segments: Γ pipeline cycles of computation, Γ cycles of hop delay
// of communication, and — spike trains streaming through both at once — a
// stage as long as the slower of the two. Evaluate and the autotuner's
// pruning bound both take it from here, which is what keeps the bound
// sound.
func FPSAStageNS(p device.Params, hops int) (comp, comm, stage float64) {
	gamma := float64(p.SamplingWindow())
	comp = gamma * p.PipelineClockNS()
	comm = gamma * float64(hops) * p.WireDelayPerHopNS
	return comp, comm, max(comp, comm)
}

// activePEs returns the duty-cycle-weighted number of PEs communicating
// concurrently: a group's copies are busy iterations/maxIterations of the
// pipeline period.
func activePEs(g *coreop.Graph, a mapper.Allocation) float64 {
	maxIter := float64(a.MaxIterations())
	var active float64
	for gi := range g.Groups {
		active += float64(a.Dup[gi]) * float64(a.Iterations[gi]) / maxIter
	}
	return active
}

// criticalFillNS returns the longest dependency chain's pipeline-fill
// time: an NBD-chained stage (it executes once per sample and no input edge
// is buffered) adds one effective cycle, a buffered stage adds a full stage
// time.
func criticalFillNS(g *coreop.Graph, a mapper.Allocation, stageNS, fillCycleNS float64) float64 {
	longest := make([]float64, len(g.Groups))
	best := 0.0
	for gi, grp := range g.Groups {
		pred := 0.0
		nbd := a.Iterations[gi] == 1
		for _, d := range grp.Deps {
			if longest[d] > pred {
				pred = longest[d]
			}
			if a.Buffered(d, gi) {
				nbd = false
			}
		}
		fill := stageNS
		if nbd {
			fill = fillCycleNS
		}
		longest[gi] = pred + fill
		if longest[gi] > best {
			best = longest[gi]
		}
	}
	return best
}

// allocFor resolves the evaluation's allocation: the explicit per-group
// Assign vector when given, the uniform Dup-derived policy otherwise. The
// whole-model replica count is the uniform policy's either way.
func allocFor(in Input) (mapper.Allocation, error) {
	uniform, err := mapper.Allocate(in.CoreOps, in.Dup)
	if err != nil || len(in.Assign) == 0 {
		return uniform, err
	}
	a, err := mapper.AllocateVector(in.CoreOps, in.Assign)
	a.Replicas = uniform.Replicas
	return a, err
}
