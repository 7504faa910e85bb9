package main

import (
	"flag"
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestRunPinned: what `fpsa-compile -model LeNet -dup 4 -pnr -seeds 2`
// prints, wall time masked. Every line but "placement:" was recorded at PR
// 24's parent (6c5e434), where main did this work itself; the placement
// line prints the two PRStats fields bench/golden.json carries for the same
// design (place.moves, place.wirelength_cost) beside its mean hops 3.805 and
// channels 1506, so a change that moves the annealing trajectory fails here
// as well as in the benchmark.
func TestRunPinned(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "LeNet", "-dup", "4", "-pnr", "-seeds", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `model LeNet: 430500 weights, 4586000 ops/sample, 10 graph nodes
synthesized: 31 weight groups, 1770 core-ops/sample
netlist: 34 PEs, 21 SMBs, 6 CLBs; chip area 0.90 mm2
modeled: throughput 1.095e+04 samples/s, latency 98.28 us, perf 5.023e+10 OPS (5.584e+10 OPS/mm2), energy 0.3625 uJ/sample (3.97 mW), bounds peak 2.85e+13 / spatial 5.54e+12 / temporal 2.04e+11
place&route: chip 9x9, routed converged=true in 1 iters, hops mean 3.8 max 10, channels needed 1506, portfolio 2 seeds (#s)
placement: 506611 annealing moves, wirelength cost 10156
with routed hops: throughput 1.643e+04 samples/s, latency 65.52 us, perf 7.535e+10 OPS (8.376e+10 OPS/mm2), energy 0.3625 uJ/sample (5.955 mW), bounds peak 2.85e+13 / spatial 5.54e+12 / temporal 2.04e+11
`
	got := regexp.MustCompile(`\(\d+\.\d+s\)`).ReplaceAllString(out.String(), "(#s)")
	if got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunRejectsBadFlags: a bad command line comes back as an error; every
// one of these used to end the process from inside main.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-dup", "x"},
		{"-model", "no-such-model"},
		{"-policy", "diagonal"},
		{"-autotune", "beauty"},
		{"-pebudget", "480"}, // only with -autotune
		{"-seeds", "-1"},
		{"-jobs", "-1"},
		{"-chipcap", "-1"},
		{"-faultrate", "2"},
	} {
		if err := run(args, io.Discard); err == nil || err == flag.ErrHelp {
			t.Errorf("run(%q) = %v, want an error", args, err)
		}
	}
}
