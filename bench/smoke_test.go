package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"fpsa"
)

// Every workload at a hundredth of its length: the rows it owes are
// there, nothing failed, and digest, counts and simulated values are the
// golden ones. No wall-clock value is asserted.
func TestSmokeEveryWorkload(t *testing.T) {
	defer func(u int) { calUnits = u }(calUnits)
	calUnits = 50
	golden, err := loadGolden(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(benchmarkPath())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			r, err := runners[name](ctx, runConfig{seed: golden.Seed, seconds: 0.2, setups: 1}, bf)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(golden, r)
			if !r.correct() {
				t.Errorf("failed %d of %d; problems: %s", r.Failed, r.Attempted, strings.Join(r.Problems, "; "))
			}
			if r.Attempted == 0 || len(r.Digest) != 64 {
				t.Errorf("attempted %d, digest %q", r.Attempted, r.Digest)
			}
			for _, def := range endToEnd {
				x, ok := r.row(def.Name)
				if ok != def.appliesTo(name) {
					t.Errorf("row %s present = %v, want %v", def.Name, ok, def.appliesTo(name))
				}
				// At this length a latency row may have too few calls per
				// segment to report; it is there and reads unresolved.
				if ok && (x.Unit != def.Unit || (x.N < 1 && x.Status != statusUnresolved)) {
					t.Errorf("row %+v: want unit %s and a value or unresolved", x, def.Unit)
				}
			}
			if x, _ := r.row("failed_share"); x.Value != 0 {
				t.Errorf("failed_share = %v", x.Value)
			}
			line := driverLine(r)
			for _, m := range driverMetrics {
				if !strings.Contains(line, `"`+m+`":{"value":`) {
					t.Errorf("driver line lacks %s: %s", m, line)
				}
			}
			if !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
				t.Errorf("driver line: %s", line)
			}
		})
	}
}

// An edited golden digest must fail the run.
func TestGoldenMismatchIsAProblem(t *testing.T) {
	g := &goldenFile{Seed: 1, GOARCH: "amd64", Workloads: map[string]goldenEntry{wlConv: {Digest: "aa", SimLatencyUS: 1}}}
	r := &result{Workload: wlConv, Seed: 1, Digest: "bb", Rows: []row{{Name: "sim_latency_us", Value: 1}}}
	checkGolden(g, r)
	if r.correct() || !strings.Contains(strings.Join(r.Problems, " "), "digest bb, golden aa") {
		t.Errorf("problems = %v", r.Problems)
	}
	other := &result{Workload: wlConv, Seed: 2, Digest: "bb", Rows: []row{{Name: "sim_latency_us", Value: 2}}}
	checkGolden(g, other)
	if len(other.Problems) != 1 || !strings.Contains(other.Problems[0], "sim_latency_us") {
		t.Errorf("another seed has other digests but the same simulated hardware: problems = %v", other.Problems)
	}
}

// One ladder on a tiny time budget: the adapters in layers.go reach every
// rung and the rungs agree on what they serve.
func TestLadderRungsAgree(t *testing.T) {
	defer func(d time.Duration) { rungBudget = d }(rungBudget)
	rungBudget = 2 * time.Millisecond
	ctx := context.Background()
	for _, name := range []string{wlServe, wlNoisy} {
		fx, err := newFixture(ctx, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		r := &result{}
		l, err := fx.climb(ctx, tr, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.rungs) != 6 || len(r.Ladders) != 6 || !r.correct() {
			t.Errorf("%s: %d rungs, problems %v", name, len(l.rungs), r.Problems)
		}
		if ns, items, _ := sumByName(tr.snapshot(), "xbar.kernel"); ns <= 0 || items == 0 {
			t.Errorf("%s: no kernel spans recorded", name)
		}
		if name == wlNoisy && fx.spec.mode != fpsa.ModeSpikingNoisy {
			t.Errorf("noisy fixture runs in mode %v", fx.spec.mode)
		}
	}
}
