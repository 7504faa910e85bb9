package fpsa

import (
	"context"
	"testing"

	"fpsa/internal/mapper"
	"fpsa/internal/netlist"
	"fpsa/internal/perf"
)

// TestPerformanceReusesNetlist: Deployment.Performance charges the block
// inventory of the whole-model netlist without building it. The oracle
// builds that netlist here: the report behind the summary must carry its
// counts and area, and the summary must equal — every field, bit for bit —
// an evaluation of the same inputs made outside the deployment. (The name
// dates from when the deployment handed the model the counts of a netlist
// it held; the floor list pins it.)
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
			whole, err := mapper.BuildNetlist(d.coreop, d.alloc, d.params, nil)
			if err != nil {
				t.Fatal(err)
			}
			pes, smbs, clbs := whole.Counts()
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
				r, err := perf.Evaluate(in, perf.TargetFPSA)
				if err != nil {
					t.Fatal(err)
				}
				if r.PEs != pes*r.Replicas || r.SMBs != smbs*r.Replicas || r.CLBs != clbs*r.Replicas {
					t.Errorf("hops %d: report charges %d PEs, %d SMBs, %d CLBs; %d replicas of the netlist's %d, %d, %d",
						hops, r.PEs, r.SMBs, r.CLBs, r.Replicas, pes, smbs, clbs)
				}
				if want := netlist.BlockAreaUM2(d.params, r.PEs, r.SMBs, r.CLBs) * 1e-6; r.AreaMM2 != want {
					t.Errorf("hops %d: report area %v mm², the netlist's blocks occupy %v", hops, r.AreaMM2, want)
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

// holdsNetlist reports whether any chip of d has built its netlist.
func holdsNetlist(d *Deployment) bool {
	for _, sh := range d.shards {
		if sh.nl != nil {
			return true
		}
	}
	return false
}

// TestFrontEndBuildsNoNetlist: compiling and evaluating a deployment —
// Performance, Blocks, AreaMM2, Shards — builds no netlist on any chip, and
// neither does a redeploy whose artifacts and configuration all come from
// the cache; what those calls report is what the netlists, once placement
// builds them, contain.
func TestFrontEndBuildsNoNetlist(t *testing.T) {
	ctx := context.Background()
	for _, chips := range []int{1, 2, 3} {
		m, err := LoadBenchmark("LeNet")
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCompileCache(0)
		compile := func() *Deployment {
			d, err := Compile(ctx, m, WithDuplication(4), WithChips(chips), WithSeed(3), WithCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Performance(); err != nil {
				t.Fatal(err)
			}
			return d
		}
		d := compile()
		pes, smbs, clbs := d.Blocks()
		area := d.AreaMM2()
		infos := d.Shards()
		if holdsNetlist(d) {
			t.Fatalf("%d chips: the front end built a netlist", chips)
		}
		if _, err := d.PlaceAndRoute(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Bitstream(ctx); err != nil {
			t.Fatal(err)
		}
		var wantPEs, wantSMBs, wantCLBs int
		var wantArea float64
		for k, sh := range d.shards {
			if sh.nl == nil {
				t.Fatalf("%d chips: chip %d was placed without a netlist", chips, k)
			}
			p, s, c := sh.nl.Counts()
			if len(infos) > 0 && (infos[k].PEs != p || infos[k].SMBs != s || infos[k].CLBs != c) {
				t.Errorf("%d chips: Shards()[%d] = %v, netlist has %d PEs, %d SMBs, %d CLBs", chips, k, infos[k], p, s, c)
			}
			wantPEs, wantSMBs, wantCLBs = wantPEs+p, wantSMBs+s, wantCLBs+c
			wantArea += sh.nl.AreaUM2(d.params) * 1e-6
		}
		if pes != wantPEs || smbs != wantSMBs || clbs != wantCLBs || area != wantArea {
			t.Errorf("%d chips: Blocks() = %d, %d, %d over %v mm²; the netlists hold %d, %d, %d over %v",
				chips, pes, smbs, clbs, area, wantPEs, wantSMBs, wantCLBs, wantArea)
		}
		warm := compile()
		stats, err := warm.PlaceAndRoute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Bitstream(ctx); err != nil {
			t.Fatal(err)
		}
		if !stats.FromCache || holdsNetlist(warm) {
			t.Errorf("%d chips: cached redeploy (FromCache=%t) built a netlist", chips, stats.FromCache)
		}
	}
}

// TestCompileFrontEndAllocs bounds the allocations of the front end on the
// largest zoo design, VGG16 at duplication 16 (3,181 blocks, 445,530 nets):
// with a netlist built at Compile, one allocation per net, it took 475,204;
// with the blocks counted, 11,798 (13,393 under the race detector), nearly
// all of them synthesis. Anything that scales with the nets again fails
// here; a netlist built with today's one allocation per block would not,
// and is what TestFrontEndBuildsNoNetlist and, for the performance model,
// perf's TestEvaluateBuildsNoNetlist catch.
func TestCompileFrontEndAllocs(t *testing.T) {
	ctx := context.Background()
	m, err := LoadBenchmark("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		d, err := Compile(ctx, m, WithDuplication(16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Performance(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20000 {
		t.Errorf("VGG16@16 Compile+Performance: %v allocations, want ≤ 20000", allocs)
	}
}
