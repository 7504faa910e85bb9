package experiments

import (
	"context"
	"math/rand"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/perf"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/synth"
)

// TransmissionResult quantifies the §7.1 design discussion: FPSA transmits
// raw spike trains between PEs, while the alternative (PipeLayer-style)
// transmits n-bit spike counts. Trains win pipeline-fill latency (a
// bufferless consumer starts 1 cycle after its producer instead of waiting
// the whole 2ⁿ-cycle window) and buffer bits (1 vs n per signal), at 2ⁿ/n×
// the wire traffic.
type TransmissionResult struct {
	Model string
	Dup   int

	// Trains: the FPSA design point.
	TrainLatencyUS   float64
	TrainBufferBits  int // per buffered signal
	TrainWireBits    int // bits moved per signal per window
	TrainCommNSPerOp float64

	// Counts: the ablated design point (full window wait + n-bit
	// transfer per stage; no streaming overlap).
	CountLatencyUS   float64
	CountBufferBits  int
	CountWireBits    int
	CountCommNSPerOp float64

	// NBD fill advantage: cycles a bufferless consumer waits before it
	// can start, trains vs counts (paper: 1 vs 2ⁿ).
	TrainFillCycles int
	CountFillCycles int
}

// AblationTransmission evaluates both transmission modes for VGG16 at the
// evaluation configuration.
func AblationTransmission() (TransmissionResult, error) {
	g, err := models.ByName(models.NameVGG16)
	if err != nil {
		return TransmissionResult{}, err
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		return TransmissionResult{}, err
	}
	p := device.Params45nm
	const dup = 64
	rep, err := perf.Evaluate(perf.Input{Model: g, CoreOps: co, Params: p, Dup: dup}, perf.TargetFPSA)
	if err != nil {
		return TransmissionResult{}, err
	}
	alloc, err := mapper.Allocate(co, dup)
	if err != nil {
		return TransmissionResult{}, err
	}
	window := p.SamplingWindow()
	hops := p.TypicalRouteHops
	res := TransmissionResult{
		Model: models.NameVGG16, Dup: dup,
		TrainLatencyUS:   rep.LatencyUS,
		TrainBufferBits:  1,
		TrainWireBits:    window,
		TrainCommNSPerOp: rep.CommNSPerVMM,
		TrainFillCycles:  1,
		CountFillCycles:  window,
		CountBufferBits:  p.IOBits,
		CountWireBits:    p.IOBits,
		CountCommNSPerOp: float64(p.IOBits*hops) * p.WireDelayPerHopNS,
	}
	// Count mode: each stage completes its window, then ships counts;
	// pipeline fill is a full stage per level instead of one cycle.
	stageNS := float64(window)*p.PipelineClockNS() + res.CountCommNSPerOp
	depth := 0
	longest := make([]int, len(co.Groups))
	for gi, grp := range co.Groups {
		pred := 0
		for _, d := range grp.Deps {
			if longest[d] > pred {
				pred = longest[d]
			}
		}
		longest[gi] = pred + 1
		if longest[gi] > depth {
			depth = longest[gi]
		}
	}
	bottleneck := float64(alloc.MaxIterations()) * stageNS
	res.CountLatencyUS = (float64(depth)*stageNS + bottleneck) * 1e-3
	return res, nil
}

// ChannelWidthPoint is one track-count sample of the routability sweep.
type ChannelWidthPoint struct {
	Tracks        int
	Converged     bool
	MaxOccupancy  int
	RoutingAreaUM float64
}

// ChannelWidthResult is the routability sweep of a real netlist — the
// classic FPGA-architecture experiment behind choosing the fabric's
// channel width.
type ChannelWidthResult struct {
	Model    string
	Blocks   int
	Points   []ChannelWidthPoint
	MinWidth int // smallest converged width in the sweep
}

// AblationChannelWidth places LeNet's netlist once, then routes it at
// shrinking channel widths until routing fails. ctx bounds the
// place-and-route work; cancellation returns ctx.Err().
func AblationChannelWidth(ctx context.Context, widths []int) (ChannelWidthResult, error) {
	if len(widths) == 0 {
		widths = []int{2048, 1024, 768, 512, 384, 256, 128}
	}
	g, err := models.ByName(models.NameLeNet)
	if err != nil {
		return ChannelWidthResult{}, err
	}
	co, err := synth.Synthesize(g, synth.DefaultOptions())
	if err != nil {
		return ChannelWidthResult{}, err
	}
	alloc, err := mapper.Allocate(co, 4)
	if err != nil {
		return ChannelWidthResult{}, err
	}
	nl, err := mapper.BuildNetlist(co, alloc, device.Params45nm, nil)
	if err != nil {
		return ChannelWidthResult{}, err
	}
	res := ChannelWidthResult{Model: models.NameLeNet, Blocks: len(nl.Blocks)}
	rng := rand.New(rand.NewSource(33))
	chip, err := fabric.SizeFor(len(nl.Blocks), widths[0], device.Params45nm)
	if err != nil {
		return ChannelWidthResult{}, err
	}
	pl, _, err := place.Anneal(ctx, nl, chip, rng, place.Options{MovesPerTemp: 2000})
	if err != nil {
		return ChannelWidthResult{}, err
	}
	for _, w := range widths {
		c := chip
		c.Tracks = w
		r, err := route.Route(ctx, nl, pl, c, route.Options{})
		if err != nil {
			return ChannelWidthResult{}, err
		}
		res.Points = append(res.Points, ChannelWidthPoint{
			Tracks:        w,
			Converged:     r.Converged,
			MaxOccupancy:  r.MaxOccupancy,
			RoutingAreaUM: c.RoutingAreaUM2(),
		})
		if r.Converged && (res.MinWidth == 0 || w < res.MinWidth) {
			res.MinWidth = w
		}
	}
	return res, nil
}
