package fpsa

import (
	"context"
	"errors"
	"fmt"

	"fpsa/internal/serve"
	"fpsa/internal/synth"
)

// engineConfig is what Deployment.NewEngine's functional options
// (WithWorkers, WithMaxBatch, WithMode, …) fill in.
type engineConfig struct {
	// Workers is the number of executors requests can borrow; each holds
	// its own programmed simulation state (0 = 4).
	Workers int
	// MaxBatch is the chunk size ClassifyBatch calls are cut into, the
	// most one kernel pass carries (0 = 8).
	MaxBatch int
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
// from: 4 executors, micro-batches of 8, spiking mode.
func defaultEngineConfig() engineConfig {
	return engineConfig{Workers: 4, MaxBatch: 8, Mode: ModeSpiking}
}

// Engine serves a deployed SpikingNet concurrently: a pool of programmed
// execution states that requests borrow. A request runs on the goroutine
// that made it — no queue, no hand-off — and waits only when every
// executor is lent out; a batch call is cut into MaxBatch-sized kernel
// passes and spreads over whatever executors are idle. Construct with
// Deployment.NewEngine and Close when done. All methods are safe for
// concurrent use.
type Engine struct {
	eng    *serve.Engine
	window int
}

// newEngine builds the serving engine over a deployed network. The
// SpikingNet itself remains usable (and independent) afterwards.
func newEngine(sn *SpikingNet, cfg engineConfig) (*Engine, error) {
	// Negative serving knobs are caller bugs, not requests for the
	// default: reject them here where the caller can still see which
	// option was wrong. 0 remains "use the built-in default".
	for _, k := range []struct {
		name string
		v    int
	}{
		{"WithWorkers", cfg.Workers},
		{"WithMaxBatch", cfg.MaxBatch},
	} {
		if k.v < 0 {
			return nil, fmt.Errorf("%w: %s(%d): value must be ≥ 0 (0 = default)", ErrInvalidArgument, k.name, k.v)
		}
	}
	// The default is the one NewEngine starts from, not serve's own: an
	// explicit WithWorkers(0) must build what no option at all builds.
	def := defaultEngineConfig()
	if cfg.Workers == 0 {
		cfg.Workers = def.Workers
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if err := checkMode(cfg.Mode); err != nil {
		return nil, err
	}
	eng, err := serve.New(sn.prog, serve.Options{
		Workers:  cfg.Workers,
		MaxBatch: cfg.MaxBatch,
		Mode:     cfg.Mode,
		Seed:     sn.currentSeed() + 7,
		Chips:    cfg.Chips,
		Faults:   sn.faults,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, window: sn.Window()}, nil
}

// Chips returns the engine's realized pipeline depth: the sharded chip
// count, or 1 for a single-chip engine.
func (e *Engine) Chips() int { return e.eng.Chips() }

// Classify runs one feature vector (values in [0, 1]) on the calling
// goroutine and returns its argmax class. ctx bounds only the wait for an
// executor; once one is held the sample runs to completion. After Close it
// returns ErrClosed.
func (e *Engine) Classify(ctx context.Context, features []float64) (int, error) {
	out, err := e.Outputs(ctx, features)
	if err != nil {
		return 0, err
	}
	return synth.Argmax(out), nil
}

// Outputs runs one feature vector and returns the raw output spike
// counts, bounded by ctx as in Classify.
func (e *Engine) Outputs(ctx context.Context, features []float64) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := e.eng.Infer(ctx, synth.QuantizeInput(features, e.window))
	return out, wrapServeErr(err)
}

// ClassifyBatch runs the call in chunks of MaxBatch samples spread over
// the executors idle at that moment and returns the positional argmax
// classes. When ctx ends it starts no further chunk, waits for the ones in
// flight and returns ctx's error; batch is not read after it returns.
func (e *Engine) ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs, err := e.eng.InferBatch(ctx, synth.QuantizeBatch(batch, e.window))
	if err != nil {
		return nil, wrapServeErr(err)
	}
	return argmaxes(outs), nil
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
func (e *Engine) Close() error { return wrapServeErr(e.eng.Close()) }

// wrapServeErr lifts internal serving sentinels into the package's
// taxonomy: a closed engine surfaces as ErrClosed (which itself wraps
// the internal sentinel), so callers errors.Is against fpsa.ErrClosed
// without importing internals.
func wrapServeErr(err error) error {
	if errors.Is(err, serve.ErrClosed) {
		return ErrClosed
	}
	return err
}
