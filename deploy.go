package fpsa

import (
	"context"
	"fmt"

	"fpsa/internal/synth"
)

// NewNet derives a runnable SpikingNet from the compiled deployment.
// With weights nil it uses the weights registered at compile time
// (WithWeights / WithWeightSource) and memoizes the result, so every
// net and engine derived from one Deployment shares one synthesized
// program; explicit weights synthesize a fresh, independent net. The
// net's programming-variation seed comes from WithSeed, so the whole
// execution configuration flows from the compile. A deployment with no
// weights anywhere, or a weight matrix that is not exactly the layer's
// rows × cols of finite values, returns ErrModelInvalid.
func (d *Deployment) NewNet(weights map[string][][]float64) (*SpikingNet, error) {
	if weights != nil {
		return d.buildNet(func(layer string) [][]float64 { return weights[layer] })
	}
	d.netMu.Lock()
	defer d.netMu.Unlock()
	if d.net != nil {
		return d.net, nil
	}
	if d.weights == nil {
		return nil, fmt.Errorf("%w: deployment of %s has no weights; pass them to NewNet or compile with WithWeights/WithWeightSource",
			ErrModelInvalid, d.model.Name())
	}
	sn, err := d.buildNet(d.weights)
	if err != nil {
		return nil, err
	}
	d.net = sn
	return sn, nil
}

// buildNet synthesizes the functional program for this deployment's
// model under the given weight source.
func (d *Deployment) buildNet(src WeightSource) (*SpikingNet, error) {
	opts := synth.DefaultOptions()
	opts.Weights = src
	_, prog, err := synth.Compile(d.model.graph, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrModelInvalid, err)
	}
	// The compiled fault scenario rides along so every net and engine of
	// this deployment programs the same faulted hardware the mapper
	// steered placement around — the one lowered model, so they also
	// share its derived masks (which do not depend on the weights).
	sn := &SpikingNet{prog: prog, faults: d.faults}
	sn.SetSeed(d.cfg.Seed)
	return sn, nil
}

// NewEngine derives a serving engine from the compiled deployment: the
// net comes from NewNet (compile-registered weights), and the chip
// partition is the compile's — the engine serves d.Chips() chips, so
// Compile is the single source of truth for how many chips serve.
// The engine has 4 executors and spreads a batch call over up to one per
// 8 samples; its mode is ModeSpiking unless WithMode says otherwise.
// ctx is checked before and after the net is derived — a cancelled
// context fails with ctx.Err() instead of programming executors
// (synthesis itself is quick and runs to completion; only PlaceAndRoute
// carries checkpointed cancellation). Close the engine when done.
func (d *Deployment) NewEngine(ctx context.Context, opts ...EngineOption) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := defaultEngineConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	cfg.Chips = d.Chips()
	sn, err := d.NewNet(nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newEngine(sn, cfg)
}
