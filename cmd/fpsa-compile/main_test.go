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

// TestRunAutotuneReplicasPinned: what `fpsa-compile -model MLP-500-100
// -dup 64 -autotune throughput` prints, search time masked. MLP-500-100's
// maximum reuse degree is 1, so dup 64 is 64 whole-model replicas of one
// 11-PE pipeline: the default budget counts all 704 PEs, and the modeled
// line is the deployment the report describes. The netlist line is one
// replica's inventory and says so.
func TestRunAutotuneReplicasPinned(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "MLP-500-100", "-dup", "64", "-autotune", "throughput"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `model MLP-500-100: 443000 weights, 886000 ops/sample, 7 graph nodes
autotune max-throughput-per-chip: budget 704 PEs, 65 candidates (1 pruned, 64 evaluated, 2 refined, cache 1 hit/1 miss)
  uniform dup 64 (704 PEs): 1.009e+08
  tuned uniform (no per-layer gain) (704 PEs, 1 chip(s)): 1.009e+08  (+0.0%)
  routed winner rescored: 2.019e+08
  (search #s)
synthesized: 11 weight groups, 11 core-ops/sample
netlist: 11 PEs, 0 SMBs, 2 CLBs; chip area 0.25 mm2 per replica, 64 whole-model replicas
modeled: throughput 1.009e+08 samples/s, latency 0.6637 us, perf 8.944e+13 OPS (5.49e+12 OPS/mm2), energy 0.0006553 uJ/sample (66.15 mW), bounds peak 5.9e+14 / spatial 3.63e+14 / temporal 3.63e+14
`
	got := regexp.MustCompile(`\(search \d+\.\d+s\)`).ReplaceAllString(out.String(), "(search #s)")
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
