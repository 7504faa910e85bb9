// Command fpsa-bench regenerates the paper's evaluation artifacts: every
// table and figure, rendered as text with paper-vs-measured annotations,
// plus the two deterministic studies (the compilation autotuner and the
// fault-injection sweep). Host wall-clock performance is measured by the
// repo benchmark instead: go run ./bench (see bench/README.md).
//
// Usage:
//
//	fpsa-bench                         # run everything
//	fpsa-bench -exp figure8            # one artifact
//	fpsa-bench -exp autotune           # per-layer autotuner vs uniform sweep
//	fpsa-bench -exp faults             # stuck-cell fault injection, remap on/off
//	fpsa-bench -list                   # show artifact IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"fpsa"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	out := flag.String("out", "", "write output to this file instead of stdout")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(fpsa.ExperimentIDs(), "\n"))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	text, err := fpsa.RunExperiment(ctx, *exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpsa-bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fpsa-bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(text)
}
