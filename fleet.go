package fpsa

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fpsa/internal/fleet"
	"fpsa/internal/serve"
	"fpsa/internal/synth"
)

// QoSClass is a tenant's admission class in a Fleet. Higher classes may
// occupy a larger share of a model's in-flight capacity before their
// requests shed with ErrOverloaded: gold rides to the full limit, silver
// to three quarters, batch to half. The zero value is QoSBatch, so an
// unconfigured tenant gets the most conservative share.
type QoSClass = fleet.Class

// QoS classes, in ascending admission share.
const (
	QoSBatch  = fleet.ClassBatch
	QoSSilver = fleet.ClassSilver
	QoSGold   = fleet.ClassGold
)

// ParseQoSClass parses a class name as it appears in fleet config files:
// "gold", "silver" or "batch" (empty means batch). Anything else is
// ErrInvalidArgument.
func ParseQoSClass(s string) (QoSClass, error) {
	c, err := fleet.ParseClass(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrInvalidArgument, err)
	}
	return c, nil
}

// fleetSettings is what the FleetOptions assemble.
type fleetSettings struct {
	opts  fleet.Options
	cache *CompileCache
}

// FleetOption configures NewFleet. Options are applied in order; a nil
// FleetOption is ignored.
type FleetOption func(*fleetSettings)

// WithFleetChips sets the fleet's simulated chip pool (default 64).
// Replicas allocate from it: model registration, autoscaling and swaps
// all stop at the pool boundary, and a swap transiently needs chips for
// both the old and the new pool.
func WithFleetChips(n int) FleetOption {
	return func(s *fleetSettings) { s.opts.Chips = n }
}

// WithTenant registers one tenant's admission config: its QoS class and
// an optional in-flight quota (0 = unlimited). Unknown tenants are
// admitted at QoSBatch with no quota.
func WithTenant(name string, class QoSClass, quota int) FleetOption {
	return func(s *fleetSettings) {
		if s.opts.Tenants == nil {
			s.opts.Tenants = make(map[string]fleet.Tenant)
		}
		s.opts.Tenants[name] = fleet.Tenant{Class: class, Quota: quota}
	}
}

// WithFleetCache shares a compile-artifact cache with the fleet:
// Fleet.CompileAndSwap compiles replacements through it, so a swap whose
// structure matches a previous compile skips place & route entirely.
// The default is a fresh private cache.
func WithFleetCache(c *CompileCache) FleetOption {
	return func(s *fleetSettings) { s.cache = c }
}

// WithScaleInterval sets the autoscaler tick (default 50ms).
func WithScaleInterval(d time.Duration) FleetOption {
	return func(s *fleetSettings) { s.opts.ScaleInterval = d }
}

// fleetModelSettings is what the FleetModelOptions assemble.
type fleetModelSettings struct {
	replicas    int
	minReplicas int
	maxReplicas int
	queueDepth  int
	eng         engineConfig
}

// FleetModelOption configures Fleet.AddModel. Options are applied in
// order; a nil FleetModelOption is ignored.
type FleetModelOption func(*fleetModelSettings)

// WithModelReplicas sets the model's initial replica pool size
// (default 1).
func WithModelReplicas(n int) FleetModelOption {
	return func(s *fleetModelSettings) { s.replicas = n }
}

// WithModelReplicaRange bounds the autoscaler's pool moves (defaults:
// min 1, max the larger of 4 and the initial size).
func WithModelReplicaRange(min, max int) FleetModelOption {
	return func(s *fleetModelSettings) { s.minReplicas, s.maxReplicas = min, max }
}

// WithModelQueueDepth sets the model's per-replica admission depth
// (default 64): the fleet admits up to replicas × depth requests in
// flight, scaled by the caller's QoS share, and sheds past that. The
// model's engine itself has no queue to size — an admitted request waits
// in it only for an executor.
func WithModelQueueDepth(n int) FleetModelOption {
	return func(s *fleetModelSettings) { s.queueDepth = n }
}

// WithModelEngine shapes the model's serving engine with the usual engine
// options (WithMode, WithMaxBatch, …). A fleet replica is one executor of
// that engine, and the fleet sets the executor count to the replica count,
// so WithWorkers is overridden; use WithModelReplicas.
func WithModelEngine(opts ...EngineOption) FleetModelOption {
	return func(s *fleetModelSettings) {
		for _, o := range opts {
			if o != nil {
				o(&s.eng)
			}
		}
	}
}

// Fleet serves many compiled Deployments onto a bounded pool of
// simulated chips, concurrently and multi-tenant: per-model replica
// pools with backlog-driven autoscaling, class-weighted admission with
// typed shed errors (ErrOverloaded, ErrTenantQuota), and zero-downtime
// bitstream hot-swap (Swap, CompileAndSwap). Construct with NewFleet,
// register models with AddModel, and Close when done. All methods are
// safe for concurrent use.
type Fleet struct {
	fl    *fleet.Fleet
	cache *CompileCache

	// models is each model's replica engine config, kept to mint a
	// replacement deployment's replicas at Swap time; its Chips is the
	// model's chip footprint per replica.
	mu     sync.Mutex
	models map[string]engineConfig
}

// NewFleet builds an empty fleet and starts its autoscaler.
func NewFleet(opts ...FleetOption) (*Fleet, error) {
	var set fleetSettings
	for _, o := range opts {
		if o != nil {
			o(&set)
		}
	}
	if set.opts.Chips < 0 {
		return nil, fmt.Errorf("%w: WithFleetChips(%d): chip pool must be ≥ 0 (0 = default)", ErrInvalidArgument, set.opts.Chips)
	}
	if set.opts.ScaleInterval < 0 {
		return nil, fmt.Errorf("%w: WithScaleInterval(%v): tick must be ≥ 0 (0 = default)", ErrInvalidArgument, set.opts.ScaleInterval)
	}
	for name, t := range set.opts.Tenants {
		if t.Quota < 0 {
			return nil, fmt.Errorf("%w: WithTenant(%q): quota %d must be ≥ 0 (0 = unlimited)", ErrInvalidArgument, name, t.Quota)
		}
		if t.Class < QoSBatch || t.Class > QoSGold {
			return nil, fmt.Errorf("%w: WithTenant(%q): unknown QoS class %d", ErrInvalidArgument, name, t.Class)
		}
	}
	if set.cache == nil {
		set.cache = NewCompileCache(0)
	}
	return &Fleet{
		fl:     fleet.New(set.opts),
		cache:  set.cache,
		models: make(map[string]engineConfig),
	}, nil
}

// Cache returns the fleet's compile-artifact cache (see WithFleetCache
// and CompileAndSwap).
func (f *Fleet) Cache() *CompileCache { return f.cache }

// replicaSource lowers a deployment to the internal fleet's replica
// source: a factory building an engine over the deployment's memoized net
// with one executor per replica, plus the input quantization window that
// engine expects. Every executor programs identical state (in
// ModeSpikingNoisy all draw the one variation stream the deployment seed
// gives an engine's first executor), which is what makes fleet outputs
// bit-identical to a fresh single-engine serve of the same deployment.
func replicaSource(d *Deployment, cfg engineConfig) (fleet.Source, error) {
	sn, err := d.NewNet(nil)
	if err != nil {
		return fleet.Source{}, err
	}
	return fleet.Source{
		Window: sn.Window(),
		New: func(replicas int) (fleet.Replica, error) {
			cfg := cfg
			cfg.Workers = replicas
			e, err := newEngine(sn, cfg)
			if err != nil {
				return nil, err
			}
			return e.eng, nil
		},
	}, nil
}

// realizeBitstream makes sure the deployment's verified configuration
// exists before replicas spin up against it: place & route (through the
// deployment's compile cache when it carries one — CompileAndSwap wires
// the fleet's) and bitstream generation. A deployment that was already
// placed serves its bitstream without re-running either phase.
func realizeBitstream(ctx context.Context, d *Deployment) error {
	if _, err := d.Bitstream(ctx); err == nil || !errors.Is(err, ErrNotPlaced) {
		return err
	}
	if _, err := d.PlaceAndRoute(ctx); err != nil {
		return err
	}
	_, err := d.Bitstream(ctx)
	return err
}

// AddModel registers a compiled deployment under name and builds its
// initial replica pool; requests route to it by name via Classify and
// Outputs. The pool's chips are reserved from the fleet (each replica
// occupies the deployment's compiled chip count), so registration fails
// with ErrCapacity when the pool cannot fit.
func (f *Fleet) AddModel(ctx context.Context, name string, d *Deployment, opts ...FleetModelOption) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d == nil {
		return fmt.Errorf("%w: AddModel(%q): nil deployment", ErrInvalidArgument, name)
	}
	set := fleetModelSettings{eng: defaultEngineConfig()}
	for _, o := range opts {
		if o != nil {
			o(&set)
		}
	}
	if set.replicas < 0 || set.minReplicas < 0 || set.maxReplicas < 0 {
		return fmt.Errorf("%w: AddModel(%q): replica counts must be ≥ 0 (0 = default)", ErrInvalidArgument, name)
	}
	if set.maxReplicas > 0 && set.minReplicas > set.maxReplicas {
		return fmt.Errorf("%w: AddModel(%q): WithModelReplicaRange(%d, %d): min exceeds max",
			ErrInvalidArgument, name, set.minReplicas, set.maxReplicas)
	}
	if set.queueDepth < 0 {
		return fmt.Errorf("%w: WithModelQueueDepth(%d): depth must be ≥ 0 (0 = default)", ErrInvalidArgument, set.queueDepth)
	}
	// The model's engine template becomes its engine's config: like
	// Deployment.NewEngine it serves the compiled chip count, and the
	// replica count, set by the fleet, is its executor count.
	cfg := set.eng
	cfg.Chips = d.Chips()
	if err := realizeBitstream(ctx, d); err != nil {
		return err
	}
	src, err := replicaSource(d, cfg)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fl.AddModel(name, src, fleet.ModelConfig{
		Replicas:        set.replicas,
		MinReplicas:     set.minReplicas,
		MaxReplicas:     set.maxReplicas,
		ChipsPerReplica: cfg.Chips,
		QueueDepth:      set.queueDepth,
	}); err != nil {
		return wrapFleetErr(err)
	}
	f.models[name] = cfg
	return nil
}

// Classify serves one request: the named model classifies features
// (values in [0, 1]) on behalf of tenant, returning the argmax class and
// the id of the deployment version that served it. Admission may shed
// with ErrOverloaded (class share exhausted) or ErrTenantQuota; both are
// matched with errors.Is.
func (f *Fleet) Classify(ctx context.Context, model, tenant string, features []float64) (class, version int, err error) {
	out, version, err := f.Outputs(ctx, model, tenant, features)
	if err != nil {
		return 0, 0, err
	}
	return synth.Argmax(out), version, nil
}

// Outputs is Classify returning the raw output spike counts instead of
// the argmax class.
func (f *Fleet) Outputs(ctx context.Context, model, tenant string, features []float64) (out []int, version int, err error) {
	res, err := f.fl.Infer(ctx, model, tenant, features)
	if err != nil {
		return nil, 0, wrapFleetErr(err)
	}
	return res.Output, res.Version, nil
}

// ClassifyBatch is Classify over a batch: the batch takes one tenant
// quota place and one admission place, runs on one deployment version —
// every class is that version's, and its id is returned — and is cut into
// the engine's MaxBatch-sized chunks as Engine.ClassifyBatch cuts it.
func (f *Fleet) ClassifyBatch(ctx context.Context, model, tenant string, batch [][]float64) (classes []int, version int, err error) {
	outs, version, err := f.fl.InferBatch(ctx, model, tenant, batch)
	if err != nil {
		return nil, 0, wrapFleetErr(err)
	}
	return argmaxes(outs), version, nil
}

// Swap hot-swaps the named model's bitstream to deployment d with zero
// downtime: it builds a replacement engine against d (same replica
// count, engine shape inherited from AddModel), atomically re-points the
// route and closes the old engine, which waits for every request inside
// it. In-flight requests are never dropped or mixed across versions —
// each completes on the version it reached, stamped with that version's
// id. The replacement must keep the model's chip footprint: a
// deployment compiled across a different chip count is ErrChipConflict,
// and a fleet without transient headroom for both engines is ErrCapacity.
func (f *Fleet) Swap(ctx context.Context, model string, d *Deployment) (FleetSwapEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil {
		return FleetSwapEvent{}, fmt.Errorf("%w: Swap(%q): nil deployment", ErrInvalidArgument, model)
	}
	f.mu.Lock()
	cfg, ok := f.models[model]
	f.mu.Unlock()
	if !ok {
		return FleetSwapEvent{}, fmt.Errorf("%w: unknown fleet model %q", ErrInvalidArgument, model)
	}
	if d.Chips() != cfg.Chips {
		return FleetSwapEvent{}, fmt.Errorf("%w: model %q serves %d chip(s) per replica but the replacement deployment needs %d; recompile the replacement with the same chip partition",
			ErrChipConflict, model, cfg.Chips, d.Chips())
	}
	if err := realizeBitstream(ctx, d); err != nil {
		return FleetSwapEvent{}, err
	}
	src, err := replicaSource(d, cfg)
	if err != nil {
		return FleetSwapEvent{}, err
	}
	ev, err := f.fl.Swap(ctx, model, src)
	return ev, wrapFleetErr(err)
}

// CompileAndSwap compiles a replacement for the named model through the
// fleet's compile cache — a structurally matching earlier compile skips
// place & route — and hot-swaps it in (see Swap). It returns the
// compiled deployment alongside the swap record.
func (f *Fleet) CompileAndSwap(ctx context.Context, model string, m Model, opts ...Option) (*Deployment, FleetSwapEvent, error) {
	d, err := Compile(ctx, m, append(append([]Option(nil), opts...), WithCache(f.cache))...)
	if err != nil {
		return nil, FleetSwapEvent{}, err
	}
	ev, err := f.Swap(ctx, model, d)
	if err != nil {
		return nil, FleetSwapEvent{}, err
	}
	return d, ev, nil
}

// Close closes every model's engine, waiting for the requests inside, and
// releases all replicas. Idempotent; requests afterwards return ErrClosed.
func (f *Fleet) Close() error { return wrapFleetErr(f.fl.Close()) }

// The fleet's snapshot types are declared where they are filled
// (internal/fleet, which carries the field docs and the /fleetz JSON tags).
type (
	// FleetStats is a point-in-time snapshot of the whole fleet: the chip
	// pool, every model's counters, and the swap history. It is the
	// payload of fpsa-serve's /fleetz endpoint.
	FleetStats = fleet.Stats
	// FleetModelStats is one fleet model's serving snapshot: requests,
	// sheds by cause (ShedOverload, ShedQuota), pool shape, version,
	// autoscaler moves, QPS and latency percentiles.
	FleetModelStats = fleet.ModelStats
	// FleetSwapEvent records one completed hot-swap.
	FleetSwapEvent = fleet.SwapEvent
)

// Stats snapshots the fleet.
func (f *Fleet) Stats() FleetStats { return f.fl.Stats() }

// wrapFleetErr lifts internal fleet sentinels into the package taxonomy:
// overload and quota sheds surface as their public sentinels, a closed
// fleet as ErrClosed, an unknown model as ErrInvalidArgument, and chip
// exhaustion as ErrCapacity.
func wrapFleetErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fleet.ErrOverloaded):
		return ErrOverloaded
	case errors.Is(err, fleet.ErrTenantQuota):
		return ErrTenantQuota
	case errors.Is(err, serve.ErrClosed):
		return ErrClosed
	case errors.Is(err, fleet.ErrUnknownModel):
		return fmt.Errorf("%w: %w", ErrInvalidArgument, err)
	case errors.Is(err, fleet.ErrNoChips):
		return fmt.Errorf("%w: %w", ErrCapacity, err)
	}
	return err
}
