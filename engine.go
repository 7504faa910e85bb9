package fpsa

import (
	"context"

	"fpsa/internal/serve"
)

// engineConfig is an engine's shape: its mode, which WithMode sets, its
// executor count and its compiled chip count.
type engineConfig struct {
	// Workers is the number of executors requests can borrow; each holds
	// its own programmed simulation state. Deployment.NewEngine builds 4;
	// a fleet model builds one per replica.
	Workers int
	// Mode selects the execution semantics (default ModeSpiking). In
	// ModeSpikingNoisy every executor is programmed with the same
	// deterministic variation, derived from the SpikingNet seed, so an
	// answer does not depend on which executor ran it.
	Mode ExecMode
	// Chips is the deployment's compiled chip count (Deployment.Chips;
	// never an option), which EngineStats.Chips reports. A sharded
	// deployment runs on the same executors as a single-chip one, so its
	// outputs are bit-identical to the single-chip engine's in every mode,
	// ModeSpikingNoisy included.
	Chips int
}

// defaultEngineConfig is the serving sweet spot every engine starts
// from: 4 executors, spiking mode.
func defaultEngineConfig() engineConfig {
	return engineConfig{Workers: 4, Mode: ModeSpiking}
}

// Engine serves a deployed SpikingNet concurrently: a pool of programmed
// execution states that requests borrow. A request runs on the goroutine
// that made it — no queue, no hand-off — and waits only when every
// executor is lent out; a batch call spreads over whatever executors are
// idle, up to one per 8 samples, and each runs its even share as one
// kernel pass. Construct with Deployment.NewEngine and Close when done.
// All methods are safe for concurrent use.
type Engine struct {
	eng *serve.Engine
}

// newEngine builds the serving engine over a deployed network, with
// cfg.Workers executors and serve's default MaxBatch of 8. The SpikingNet
// itself remains usable (and independent) afterwards.
func newEngine(sn *SpikingNet, cfg engineConfig) (*Engine, error) {
	if err := checkMode(cfg.Mode); err != nil {
		return nil, err
	}
	eng, err := serve.New(sn.prog, serve.Options{
		Workers: cfg.Workers,
		Mode:    cfg.Mode,
		Seed:    sn.currentSeed() + 7,
		Chips:   cfg.Chips,
		Faults:  sn.faults,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// ClassifyBatch spreads the call over the executors idle at that moment,
// up to one per 8 samples, runs each one's even share as one kernel pass
// (passes of at most 64) and returns the positional argmax classes. When
// ctx ends it starts no further pass, waits for the ones in flight and
// returns ctx's error; batch is not read after it returns.
func (e *Engine) ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	classes, err := e.eng.ClassifyBatch(ctx, batch)
	return classes, liftErr(err)
}

// EngineStats is a snapshot of an engine's serving counters — the
// served-traffic counterpart of PerfSummary. It is declared where it is
// filled: see serve.Stats for the fields.
type EngineStats = serve.Stats

// Stats snapshots the engine's counters and latency percentiles.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// Close waits for every call already inside the engine — running or
// waiting for an executor — and releases it. Idempotent; ClassifyBatch
// afterwards returns ErrClosed.
func (e *Engine) Close() error { return liftErr(e.eng.Close()) }
