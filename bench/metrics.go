package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The five workloads, in the order -workload all runs them. The names are
// what BENCHMARK.json, golden.json and every report key on.
const (
	wlConv    = "offline_conv_spiking"
	wlServe   = "serve_mlp_reference"
	wlNoisy   = "offline_mlp_noisy_sparse"
	wlFleet   = "fleet_mixed"
	wlCompile = "compile_zoo"
)

var workloadNames = []string{wlConv, wlServe, wlNoisy, wlFleet, wlCompile}

// runtimeWorkloads serve samples; compile_zoo runs none of the runtime
// layers.
var runtimeWorkloads = []string{wlConv, wlServe, wlNoisy, wlFleet}

// metricDef names one metric: its unit, which direction is better, and
// for an end-to-end metric the share of the parent's median by which it
// may worsen. Exact metrics come from the simulated-hardware clock or
// are counts; they repeat bit for bit and are compared exactly, never
// against a bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Exact  bool
	// Workloads the metric is defined on; nil means all five.
	Workloads []string
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move, on which workload.
	Moves string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees. The first three are
// defined on every workload and are the ones BENCHMARK.json hands to the
// driver; the rest are workload-specific or exact, and are gated by this
// program's own -compare and golden check.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_sps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wlFleet}},
	{Name: "compile_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: []string{wlCompile}},
	{Name: "warm_compile_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wlCompile}},
	{Name: "sim_latency_us", Unit: "sim_us", Better: "lower", Exact: true},
	{Name: "sim_energy_uj", Unit: "sim_uJ", Better: "lower", Exact: true},
	{Name: "ref_agreement", Unit: "share", Better: "higher", Exact: true, Workloads: runtimeWorkloads},
	{Name: "failed_share", Unit: "share", Better: "lower", Exact: true},
}

// driverMetrics are the end-to-end metrics listed in BENCHMARK.json: host
// time, defined and never 0 on all five workloads.
var driverMetrics = []string{"setup_s", "throughput_sps", "p50_ms"}

// Which end-to-end metric each layer metric should move.
const (
	movesConv    = "throughput_sps on offline_conv_spiking almost 1:1; on fleet_mixed by the kernel's share; not on serve_mlp_reference"
	movesRef     = "throughput_sps on serve_mlp_reference by at most about a third"
	movesNoisy   = "throughput_sps on offline_mlp_noisy_sparse"
	movesPath    = "explains kernel path selection on the traced workload; repeats exactly"
	movesBatch   = "throughput_sps on offline_conv_spiking; b1/b16 is the does-batching-pay ratio"
	movesSetup   = "setup_s; fleet.swap_ms"
	movesShard   = "throughput_sps and p50_ms on fleet_mixed (model m_shard)"
	movesServe   = "throughput_sps on serve_mlp_reference; not on offline_conv_spiking"
	movesLone    = "p50_ms and p99_ms on fleet_mixed"
	movesFleet   = "throughput_sps, p99_ms and failed_share on fleet_mixed"
	movesWrap    = "throughput_sps on serve_mlp_reference"
	movesFront   = "compile_s on compile_zoo (zoo part); sim_latency_us, sim_energy_uj"
	movesPR      = "compile_s on compile_zoo (cold part); the counts pin P&R quality"
	movesCache   = "warm_compile_ms on compile_zoo; fleet.swap_ms"
	movesNone    = "none yet; recorded so a later issue can add it"
	movesLoadgen = "validity of the run itself"
)

// perLayer is measured in the traced run only, from this directory, by
// timing calls into each package's exported functions. The layer is the
// package name before the dot.
var perLayer = []metricDef{
	{Name: "xbar.spiking_us_per_sample", Unit: "us", Better: "lower", Moves: movesConv},
	{Name: "xbar.host_ns_per_sim_cycle", Unit: "ns", Better: "lower", Moves: movesConv},
	{Name: "spike.pack_ns_per_train", Unit: "ns", Better: "lower", Moves: movesConv},
	{Name: "xbar.reference_us_per_sample", Unit: "us", Better: "lower", Moves: movesRef},
	{Name: "xbar.noisy_us_per_sample", Unit: "us", Better: "lower", Moves: movesNoisy},
	{Name: "xbar.program_us", Unit: "us", Better: "lower", Moves: movesNoisy + "; setup_s everywhere"},
	{Name: "device.faulted_cells", Unit: "count", Better: "lower", Exact: true, Moves: movesNoisy},
	{Name: "xbar.sparse_kernels", Unit: "count", Better: "higher", Exact: true, Moves: movesPath},
	{Name: "xbar.dense_kernels", Unit: "count", Better: "lower", Exact: true, Moves: movesPath},
	{Name: "xbar.spike_density", Unit: "share", Better: "lower", Exact: true, Moves: movesPath},
	{Name: "synth.runbatch_us_per_sample_b1", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "synth.runbatch_us_per_sample_b16", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "synth.runbatch_us_per_sample_b64", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "synth.self_us_per_sample", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "synth.allocs_per_batch", Unit: "count", Better: "lower", Moves: movesBatch},
	{Name: "synth.bytes_per_batch", Unit: "B", Better: "lower", Moves: movesBatch},
	{Name: "synth.new_executor_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "synth.compile_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "trainer.train_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "fpsa.new_net_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "fpsa.new_engine_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "synth.pipeline2_us_per_sample", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "synth.pipeline2_batch_ms", Unit: "ms", Better: "lower", Moves: movesShard},
	{Name: "shard.partition_us", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "serve.us_per_sample", Unit: "us", Better: "lower", Moves: movesServe},
	{Name: "serve.self_us_per_sample", Unit: "us", Better: "lower", Moves: movesServe},
	{Name: "serve.mean_exec_batch", Unit: "count", Better: "higher", Moves: movesServe},
	{Name: "serve.exec_batches", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serve.lone_request_ms", Unit: "ms", Better: "lower", Moves: movesLone},
	{Name: "fleet.us_per_request", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.self_us_per_request", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.swap_ms", Unit: "ms", Better: "lower", Moves: movesFleet},
	{Name: "fleet.shed_overload", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.shed_quota", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.scale_ups", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.scale_downs", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.replicas_end", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fpsa.quantize_ns_per_sample", Unit: "ns", Better: "lower", Moves: movesWrap},
	{Name: "fpsa.allocs_per_sample", Unit: "count", Better: "lower", Moves: movesWrap},
	{Name: "fpsa.bytes_per_sample", Unit: "B", Better: "lower", Moves: movesWrap},
	{Name: "fpsa.compile_frontend_ms", Unit: "ms", Better: "lower", Moves: movesFront},
	{Name: "synth.synthesize_ms", Unit: "ms", Better: "lower", Moves: movesFront},
	{Name: "mapper.allocate_ms", Unit: "ms", Better: "lower", Moves: movesFront},
	{Name: "mapper.netlist_ms", Unit: "ms", Better: "lower", Moves: movesFront},
	{Name: "mapper.pes", Unit: "count", Better: "lower", Exact: true, Moves: movesFront},
	{Name: "perf.evaluate_us", Unit: "us", Better: "lower", Moves: movesFront},
	{Name: "place.portfolio_ms", Unit: "ms", Better: "lower", Moves: movesPR},
	{Name: "place.moves", Unit: "count", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "place.wirelength_cost", Unit: "cost", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "route.route_ms", Unit: "ms", Better: "lower", Moves: movesPR},
	{Name: "route.iterations", Unit: "count", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "route.mean_hops", Unit: "hops", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "route.channels_needed", Unit: "count", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "bitstream.generate_ms", Unit: "ms", Better: "lower", Moves: movesPR},
	{Name: "bitstream.verify_ms", Unit: "ms", Better: "lower", Moves: movesPR},
	{Name: "bitstream.programmed_cells", Unit: "count", Better: "lower", Exact: true, Moves: movesPR},
	{Name: "compilecache.hit_us", Unit: "us", Better: "lower", Moves: movesCache},
	{Name: "compilecache.hits", Unit: "count", Better: "higher", Exact: true, Moves: movesCache},
	{Name: "compilecache.misses", Unit: "count", Better: "lower", Exact: true, Moves: movesCache},
	{Name: "fpsa.autotune_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "fpsa.autotune_candidates", Unit: "count", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: movesLoadgen},
	{Name: "loadgen.trace_overhead_share", Unit: "share", Better: "lower", Moves: movesLoadgen},
	{Name: "loadgen.segments_iqr_share", Unit: "share", Better: "lower", Moves: movesLoadgen},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// boundFor returns the regression bound of an end-to-end metric: the one
// BENCHMARK.json fixes when it lists the metric, this program's own
// otherwise.
func (b *benchmarkFile) boundFor(m metricDef) float64 {
	if b != nil {
		for _, e := range b.EndToEnd {
			if e.Name == m.Name && e.Bound != nil {
				return *e.Bound
			}
		}
	}
	return m.Bound
}

// printList prints every workload and metric name with unit, direction
// and bound (-list).
func printList(b *benchmarkFile) {
	fmt.Println("workloads:")
	for _, w := range workloadNames {
		why := ""
		if b != nil {
			for _, bw := range b.Workloads {
				if bw.Name == w {
					why = bw.Why
				}
			}
		}
		fmt.Printf("  %-26s %s\n", w, why)
	}
	fmt.Println("end-to-end metrics:")
	for _, m := range endToEnd {
		bound := fmt.Sprintf("bound %.2f", b.boundFor(m))
		if m.Exact {
			bound = "exact"
		}
		on := "all workloads"
		if m.Workloads != nil {
			on = fmt.Sprint(m.Workloads)
		}
		fmt.Printf("  %-18s %-7s %-6s %-10s %s\n", m.Name, m.Unit, m.Better, bound, on)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, m := range perLayer {
		kind := "timed"
		if m.Exact {
			kind = "exact"
		}
		fmt.Printf("  %-34s %-6s %-6s %-5s moves %s\n", m.Name, m.Unit, m.Better, kind, m.Moves)
	}
}
