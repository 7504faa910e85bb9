// Package fpsa is a full-system-stack simulator of FPSA, the reconfigurable
// ReRAM-based neural-network accelerator of Ji et al. (ASPLOS 2019): a
// spiking crossbar processing-element model, spiking memory blocks,
// configurable logic blocks and an FPGA-style reconfigurable routing
// fabric, together with the software stack that deploys neural networks
// onto them — neural synthesizer, spatial-to-temporal mapper, and
// placement & routing — plus the performance models and baselines (PRIME,
// FP-PRIME) behind every table and figure of the paper's evaluation.
//
// The API is context-first and option-based, with the Deployment as the
// one handle everything derives from. Typical use:
//
//	m, _ := fpsa.LoadBenchmark("VGG16")
//	d, _ := fpsa.Compile(ctx, m, fpsa.WithDuplication(64))
//	fmt.Println(d.Performance())
//
// or train a network, compile it with its weights, and run the derived
// spiking net:
//
//	net, _ := fpsa.TrainMLP(1, []int{16, 24, 4}, ds, 40)
//	d, _ := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()))
//	sn, _ := d.NewNet(nil)
//	label, _ := sn.Classify(x, fpsa.ModeSpiking)
//
// or serve it under concurrent load through the engine, a pool of
// programmed executors that requests borrow — the engine derives from the
// same deployment, so the chip partition, weights and seed flow from the
// compile:
//
//	eng, _ := d.NewEngine(ctx)
//	defer eng.Close()
//	label, _ = eng.Classify(ctx, x) // safe from any number of goroutines
//	fmt.Println(eng.Stats())
//
// The context is live throughout: cancelling it aborts placement
// annealing and routing at their next checkpoint with ctx.Err(), and an
// uncancelled run is bit-identical to one without a deadline. Failures
// carry a typed taxonomy — ErrModelInvalid, ErrCapacity, ErrUnroutable,
// ErrChipConflict, ErrClosed — matchable with errors.Is.
//
// Placement & routing scale across cores and never repeat work: pass
// WithPlacementSeeds/WithParallelism for a multi-seed annealing
// portfolio and parallel routing, and WithCache (see NewCompileCache)
// to serve repeat deployments from a content-addressed artifact cache.
//
// Models larger than one chip shard across several: WithChips and
// WithChipCapacity partition the compile (per-chip netlists, concurrent
// place & route, inter-chip links charged into the performance model)
// and an engine derived from the sharded deployment serves it as a
// chip-level pipeline with bit-identical outputs — see ShardPolicy,
// Deployment.Shards and docs/SERVING.md.
package fpsa

import (
	"fmt"

	"fpsa/internal/cgraph"
	"fpsa/internal/models"
)

// Model is a neural network ready for compilation.
type Model struct {
	graph *cgraph.Graph
}

// BenchmarkModels returns the names of the paper's seven benchmark
// networks (Table 3 order).
func BenchmarkModels() []string { return models.Names() }

// LoadBenchmark builds one of the paper's benchmark networks by name.
func LoadBenchmark(name string) (Model, error) {
	g, err := models.ByName(name)
	if err != nil {
		return Model{}, err
	}
	return Model{graph: g}, nil
}

// Name returns the model's name.
func (m Model) Name() string { return m.graph.Name }

// Weights returns the parameter count (Table 3's "# of weights").
func (m Model) Weights() int64 { return m.graph.TotalWeights() }

// Ops returns 2×MACs per sample (Table 3's "# of ops").
func (m Model) Ops() int64 { return m.graph.TotalOps() }

// Layers returns the number of graph nodes.
func (m Model) Layers() int { return m.graph.Len() }

// WeightLayers returns the names of the MAC-bearing layers (convolutions
// and FC layers) in topological order — the keys WithWeights expects.
func (m Model) WeightLayers() []string {
	var names []string
	for _, n := range m.graph.Nodes() {
		switch n.Op.(type) {
		case cgraph.Conv2D, cgraph.FC:
			names = append(names, n.Name)
		}
	}
	return names
}

// valid reports whether the model was produced by a constructor.
func (m Model) valid() error {
	if m.graph == nil {
		return fmt.Errorf("%w: zero Model; use LoadBenchmark or ModelBuilder", ErrModelInvalid)
	}
	return nil
}
