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
	// never an option). At ≥ 2 the network is served as a sharded
	// deployment: every executor's stages are partitioned across that many
	// chips (clamped to what the program supports) and a request walks
	// them in order on its own goroutine. Outputs are bit-identical to the
	// single-chip engine in every mode, ModeSpikingNoisy included.
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

// Classify runs one feature vector (values in [0, 1]) on the calling
// goroutine and returns its argmax class. ctx bounds only the wait for an
// executor; once one is held the sample runs to completion. After Close it
// returns ErrClosed.
func (e *Engine) Classify(ctx context.Context, features []float64) (int, error) {
	classes, err := e.ClassifyBatch(ctx, [][]float64{features})
	if err != nil {
		return 0, err
	}
	return classes[0], nil
}

// Outputs runs one feature vector and returns the raw output spike
// counts, bounded by ctx as in Classify.
func (e *Engine) Outputs(ctx context.Context, features []float64) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := e.eng.Outputs(ctx, [][]float64{features})
	return out, liftErr(err)
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
// waiting for an executor — and releases it. Idempotent; Classify
// afterwards returns ErrClosed.
func (e *Engine) Close() error { return liftErr(e.eng.Close()) }
