package fpsa

import (
	"context"
	"testing"

	"fpsa/internal/perf"
)

// TestPerformanceReusesNetlist: Deployment.Performance hands the
// performance model the block counts of the netlist the deployment
// already holds (or, sharded, the memoized whole-model counts); the
// summary must equal — every field, bit for bit — an evaluation that
// builds the netlist afresh.
func TestPerformanceReusesNetlist(t *testing.T) {
	ctx := context.Background()
	type tcase struct {
		name, model string
		opts        []Option
	}
	var cases []tcase
	for _, name := range BenchmarkModels() {
		cases = append(cases,
			tcase{name + "@1", name, []Option{WithDuplication(1)}},
			tcase{name + "@16", name, []Option{WithDuplication(16)}})
	}
	cases = append(cases,
		tcase{"LeNet@4 faulted", "LeNet", []Option{WithDuplication(4), WithFaultMap(FaultMap{Rate: 0.03, Seed: 17, NoRemap: true})}},
		// Sharded, the per-chip netlists sum to different SMB and CLB counts
		// than the whole-model netlist the performance model charges.
		tcase{"LeNet@4 on 2 chips", "LeNet", []Option{WithDuplication(4), WithChips(2)}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadBenchmark(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Compile(ctx, m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, hops := range []int{0, 3} {
				in := perf.Input{
					Model:     d.model.graph,
					CoreOps:   d.coreop,
					Params:    d.params,
					Dup:       d.cfg.Duplication,
					Assign:    d.alloc.Dup,
					Hops:      hops,
					CutWidths: d.cutTraffic,
				}
				r, err := perf.Evaluate(in, perf.TargetFPSA) // no Inventory: builds the netlist
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.PerformanceWithHops(hops)
				if err != nil {
					t.Fatal(err)
				}
				if want := summarize(r); got != want {
					t.Errorf("hops %d:\n got %+v\nwant %+v", hops, got, want)
				}
			}
			byDefault, err := d.Performance()
			if err != nil {
				t.Fatal(err)
			}
			if atZero, _ := d.PerformanceWithHops(0); byDefault != atZero {
				t.Errorf("Performance() %+v differs from PerformanceWithHops(0) %+v", byDefault, atZero)
			}
		})
	}
}
