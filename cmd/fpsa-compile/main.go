// Command fpsa-compile runs the software stack on one benchmark model:
// neural synthesis, PE allocation, netlist generation, performance
// modeling, and (optionally, for small deployments) real placement &
// routing — multi-seed, parallel, and optionally served from the
// content-addressed deployment cache. With -chips ≥ 2 the model is
// sharded across that many chips (each placed and routed independently)
// and the inter-chip links are charged into the performance model.
// Everything runs under one signal-bound context, so Ctrl-C aborts a
// long placement & routing run at its next checkpoint.
//
// Usage:
//
//	fpsa-compile -model LeNet -dup 4
//	fpsa-compile -model MLP-500-100 -pnr
//	fpsa-compile -model LeNet -dup 4 -pnr -seeds 4 -jobs 4
//	fpsa-compile -model LeNet -dup 4 -pnr -cache
//	fpsa-compile -model MLP-500-100 -chips 2 -pnr
//	fpsa-compile -model MLP-500-100 -chipcap 8 -chips 4
//	fpsa-compile -model LeNet -autotune energy -pebudget 480
//	fpsa-compile -model LeNet -autotune latency -pebudget 700 -pnr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"fpsa"
)

// errUsage marks an error the flag set has already reported on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fpsa-compile:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (without the program name) and
// prints the deployment to stdout. A bad flag is reported by the flag set
// and comes back as an error instead of ending the process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpsa-compile", flag.ContinueOnError)
	model := fs.String("model", "LeNet", "benchmark model name")
	dup := fs.Int("dup", 1, "duplication degree")
	pnr := fs.Bool("pnr", false, "run simulated-annealing placement and PathFinder routing")
	seed := fs.Int64("seed", 1, "placement seed")
	seeds := fs.Int("seeds", 1, "annealing portfolio size (independent placement seeds)")
	jobs := fs.Int("jobs", 0, "worker goroutines for placement and routing (0 = all cores)")
	cache := fs.Bool("cache", false, "deploy through a content-addressed cache and show a second, cached deployment (implies -pnr)")
	chips := fs.Int("chips", 1, "maximum chips to shard the deployment across (1 = single chip)")
	chipcap := fs.Int("chipcap", 0, "per-chip PE capacity (0 = unbounded; with -chips, shards onto the fewest chips that fit)")
	policyName := fs.String("policy", "auto", "shard partitioning policy: auto, mincut, or balanced")
	autotune := fs.String("autotune", "", "search per-layer duplication and shard cuts for this objective (latency, energy, or throughput) instead of compiling -dup as given")
	pebudget := fs.Int("pebudget", 0, "PE envelope for -autotune (0 = derive from -chipcap x -chips, else the uniform -dup spend)")
	faultrate := fs.Float64("faultrate", 0, "stuck-cell fault rate per crossbar cell in [0,1] (0 = ideal devices); faults are drawn deterministically from -faultseed and remapped around spare rows/columns")
	faultseed := fs.Int64("faultseed", 1, "fault-map seed for -faultrate")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *cache {
		*pnr = true
	}
	policy, err := fpsa.ParseShardPolicy(*policyName)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	m, err := fpsa.LoadBenchmark(*model)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model %s: %d weights, %d ops/sample, %d graph nodes\n",
		m.Name(), m.Weights(), m.Ops(), m.Layers())

	opts := []fpsa.Option{
		fpsa.WithDuplication(*dup), fpsa.WithSeed(*seed),
		fpsa.WithPlacementSeeds(*seeds), fpsa.WithParallelism(*jobs),
		fpsa.WithChips(*chips), fpsa.WithChipCapacity(*chipcap),
		fpsa.WithShardPolicy(policy),
	}
	if *faultrate != 0 {
		opts = append(opts, fpsa.WithFaultModel(*faultrate, *faultseed))
		fmt.Fprintf(stdout, "fault model: stuck-cell rate %g, seed %d, spare-row/column remapping on\n", *faultrate, *faultseed)
	}
	var artifacts *fpsa.CompileCache
	if *cache {
		artifacts = fpsa.NewCompileCache(0)
		opts = append(opts, fpsa.WithCache(artifacts))
	}
	var d *fpsa.Deployment
	if *autotune != "" {
		objective, err := fpsa.ParseObjective(*autotune)
		if err != nil {
			return err
		}
		start := time.Now()
		tuned, report, err := fpsa.Autotune(ctx, m, objective,
			append(opts, fpsa.WithPEBudget(*pebudget))...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s  (search %.2fs)\n", report, time.Since(start).Seconds())
		d = tuned
	} else {
		if *pebudget != 0 {
			return errors.New("-pebudget only applies with -autotune")
		}
		compiled, err := fpsa.Compile(ctx, m, opts...)
		if err != nil {
			return err
		}
		d = compiled
	}
	groups, coreOps := d.CoreOps()
	pes, smbs, clbs := d.Blocks()
	fmt.Fprintf(stdout, "synthesized: %d weight groups, %d core-ops/sample\n", groups, coreOps)
	fmt.Fprintf(stdout, "netlist: %d PEs, %d SMBs, %d CLBs; chip area %.2f mm2\n", pes, smbs, clbs, d.AreaMM2())
	if shards := d.Shards(); shards != nil {
		fmt.Fprintf(stdout, "sharded across %d chips (%v policy):\n", d.Chips(), policy)
		for _, sh := range shards {
			fmt.Fprintf(stdout, "  %s\n", sh)
		}
	}

	p, err := d.Performance()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "modeled: %s\n", p)

	if *pnr {
		start := time.Now()
		stats, err := d.PlaceAndRoute(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "place&route: %s (%.2fs)\n", stats, time.Since(start).Seconds())
		fmt.Fprintf(stdout, "placement: %d annealing moves, wirelength cost %g\n", stats.PlacementMoves, stats.WirelengthCost)
		routed, err := d.PerformanceWithHops(int(stats.MeanHops + 0.5))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "with routed hops: %s\n", routed)

		if *cache && *autotune == "" {
			// Redeploy the same model and options: the cache must serve
			// the artifacts without annealing or routing again. (Under
			// -autotune the search already reports its own cache traffic.)
			d2, err := fpsa.Compile(ctx, m, opts...)
			if err != nil {
				return err
			}
			start = time.Now()
			cached, err := d2.PlaceAndRoute(ctx)
			if err != nil {
				return err
			}
			hits, misses := artifacts.Counters()
			fmt.Fprintf(stdout, "redeploy:    %s (%.4fs, cache %d hit / %d miss)\n",
				cached, time.Since(start).Seconds(), hits, misses)
		}
	}
	return nil
}
