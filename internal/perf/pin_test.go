package perf_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fpsa"
	"fpsa/internal/device"
	"fpsa/internal/models"
	"fpsa/internal/perf"
	"fpsa/internal/synth"
)

// TestEvaluateZooPinned pins the perf model's numbers bit for bit: the
// Float64bits of latency, throughput, area, the per-VMM comp/comm bars and
// every energy field of Evaluate for each zoo model × dup {1, 4, 16} × the
// three targets, plus one explicit Assign + CutWidths input, and the search
// accounting of the autotuner whose pruning bound reuses the FPSA stage
// time. The values were recorded by running this file unmodified at
// bba02e9, before the SMB-buffering rule and the stage time were each
// written once; never re-record them to make a model change pass.
func TestEvaluateZooPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	targets := []perf.Target{perf.TargetFPSA, perf.TargetFPPRIME, perf.TargetPRIME}
	evaluate := func(in perf.Input) {
		t.Helper()
		for _, target := range targets {
			r, err := perf.Evaluate(in, target)
			if err != nil {
				t.Fatalf("%s dup %d %v: %v", in.CoreOps.Name, in.Dup, target, err)
			}
			for _, v := range []float64{r.LatencyUS, r.ThroughputSPS, r.AreaMM2, r.CompNSPerVMM, r.CommNSPerVMM,
				r.Energy.PEuJ, r.Energy.SMBuJ, r.Energy.CLBuJ, r.PowerMW} {
				put(v)
			}
		}
	}
	for _, name := range models.Names() {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		co, err := synth.Synthesize(g, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, dup := range []int{1, 4, 16} {
			evaluate(perf.Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: dup})
		}
		if name == models.NameLeNet {
			assign := make([]int, len(co.Groups))
			for i := range assign {
				assign[i] = 1 + 3*(i%3)
			}
			evaluate(perf.Input{Model: g, CoreOps: co, Params: device.Params45nm, Dup: 4, Assign: assign, CutWidths: []int{120, 40}})
		}
	}
	if got, want := h.Sum64(), uint64(0x2e0a99589c765ead); got != want {
		t.Errorf("Evaluate digest = %#x, want %#x", got, want)
	}

	m, err := fpsa.LoadBenchmark(models.NameLeNet)
	if err != nil {
		t.Fatal(err)
	}
	want := map[fpsa.Objective][4]uint64{
		fpsa.MinLatency:           {131, 64, 67, 0x40230a11a975afb0},
		fpsa.MinEnergy:            {131, 0, 131, 0x3fbcb7a77dc76745},
		fpsa.MaxThroughputPerChip: {45, 0, 45, 0x4118116edf62e001},
	}
	for _, obj := range []fpsa.Objective{fpsa.MinLatency, fpsa.MinEnergy, fpsa.MaxThroughputPerChip} {
		_, rep, err := fpsa.Autotune(context.Background(), m, obj, fpsa.WithPEBudget(480), fpsa.WithAutotuneRefine(0))
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{uint64(rep.Candidates), uint64(rep.Pruned), uint64(rep.Evaluated), math.Float64bits(rep.TunedValue)}
		if got != want[obj] {
			t.Errorf("Autotune(LeNet, %v, 480 PEs): candidates/pruned/evaluated/value bits = %#v, want %#v", obj, got, want[obj])
		}
	}
}
