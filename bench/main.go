// Command bench is the repository's benchmark: five workloads, each
// measured end to end through the public fpsa API on two clocks that are
// never mixed — simulated-hardware values from the performance model,
// which repeat exactly, and host wall clock, which is reported as a median
// over equal segments with quartiles — and, in a separate traced run, layer
// by layer from the outside. See README.md in this directory.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds <s>] [-trace <0|1|file>] [-out <file>]
//	go run ./bench -list
//	go run ./bench -compare a.json b.json
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics, as BENCHMARK.json's driver
// expects.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTimeout bounds one workload's run, set-up and checks included.
const runTimeout = 170 * time.Second

var runners = map[string]func(context.Context, runConfig, *benchmarkFile) (*result, error){
	wlConv:    runConv,
	wlServe:   runServe,
	wlNoisy:   runNoisy,
	wlFleet:   runFleet,
	wlCompile: runCompile,
}

// benchmarkPath finds BENCHMARK.json from the repository root or from
// inside bench/.
func benchmarkPath() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "BENCHMARK.json"
	}
	return filepath.Join("..", "BENCHMARK.json")
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs, their order, the arrival schedule and the request mix")
	seconds := flag.Float64("seconds", 20, "length of the timed run in seconds")
	trace := flag.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; any other value: traced run writing its spans to that file")
	out := flag.String("out", "", "write the report as JSON to this file")
	list := flag.Bool("list", false, "print every workload and metric with unit, direction and bound")
	compare := flag.Bool("compare", false, "compare two -out reports: bench -compare parent.json change.json")
	update := flag.Bool("update-golden", false, "record this run's digests, counts and simulated values in golden.json")
	flag.Parse()

	bf, err := loadBenchmarkFile(benchmarkPath())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (using built-in bounds)\n", err)
		bf = nil
	}
	switch {
	case *list:
		printList(bf)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two report files")
		}
		regressed, err := compareFiles(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if runners[n] == nil {
			fatalf("unknown workload %q (have %v)", n, workloadNames)
		}
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	golden, goldenErr := loadGolden(goldenPath())
	if goldenErr != nil && !*update {
		fatalf("%v", goldenErr)
	}

	rep := report{Schema: 1, Host: thisHost()}
	var results []*result
	allCorrect := true
	for _, name := range names {
		cfg := runConfig{seed: *seed, seconds: *seconds}
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		var r *result
		var err error
		if *trace == "0" || *trace == "" {
			r, err = runners[name](ctx, cfg, bf)
		} else {
			spans := *trace
			if spans == "1" {
				spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", name, *seed))
			} else if len(names) > 1 {
				spans = fmt.Sprintf("%s.%s", spans, name)
			}
			r, err = runTraced(ctx, name, cfg, bf, spans)
		}
		cancel()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if !*update {
			checkGolden(golden, r)
		}
		printResult(os.Stdout, r)
		fmt.Println(driverLine(r))
		allCorrect = allCorrect && r.correct()
		results = append(results, r)
		rep.Results = append(rep.Results, *r)
	}
	if *update {
		if err := updateGolden(goldenPath(), results); err != nil {
			fatalf("%v", err)
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fatalf("%v", err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
