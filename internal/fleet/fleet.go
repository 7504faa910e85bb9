// Package fleet schedules many compiled deployments onto a bounded pool
// of simulated chips and serves them concurrently — the layer above
// serve.Engine that a production FPSA installation would run: one engine
// per model whose executors are its replicas (each occupying chips),
// admission control with per-tenant QoS classes, and zero-downtime
// bitstream hot-swap. A model's replica count is fixed when it is
// registered and kept across swaps.
//
// Every model points at a version — an immutable bitstream generation, its
// engine — through an atomic pointer. The engine is the replica pool: a
// request borrows whichever executor is idle and waits only when all are
// busy. Swap and Close change a model the same way (repoint): build the
// replacement engine, store it as the route, Close the old engine — which
// returns once every call inside it has — and settle the chips. No
// in-flight request is ever dropped: one that reaches an engine already
// closed retries on the current route. Every response is attributable to
// exactly one version.
// The fleet hands its engines feature vectors and each engine quantizes
// them against its own program's sampling window Γ, so a request never
// sees one version's window with another's engine: by construction, not
// by bookkeeping here.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpsa/internal/serve"
)

// The package's shed/routing sentinels. The public fpsa package lifts
// them into its taxonomy (fpsa.ErrOverloaded, fpsa.ErrTenantQuota, …);
// ErrClosed wraps serve.ErrClosed so one errors.Is class covers "the
// serving stack is shut down" at every layer.
var (
	// ErrOverloaded sheds a request whose QoS class is over the model's
	// class-weighted admission limit.
	ErrOverloaded = errors.New("fleet: overloaded")
	// ErrTenantQuota sheds a request whose tenant is at its in-flight
	// quota.
	ErrTenantQuota = errors.New("fleet: tenant quota exceeded")
	// ErrUnknownModel rejects a request for a model the fleet does not
	// serve.
	ErrUnknownModel = errors.New("fleet: unknown model")
	// ErrNoChips rejects a model registration or swap that needs more
	// simulated chips than the fleet has free.
	ErrNoChips = errors.New("fleet: insufficient chips")
	// ErrClosed is returned once Close has begun.
	ErrClosed = fmt.Errorf("fleet: closed: %w", serve.ErrClosed)
)

// Replica is the engine serving one model version: a pool of programmed
// executors, one per replica. *serve.Engine satisfies it. Outputs runs a
// batch of feature vectors and returns every sample's output counts back
// to back, the same number per sample; ClassifyBatch runs one and returns
// each sample's argmax class. QueueDepth is its backlog —
// requests waiting for an executor right now, not counting the ones
// running — and is what Stats reports. MergeLatency adds the latencies
// it has recorded, one per non-empty call from arrival to completion, to
// h: they are the model's percentiles, the fleet keeps no clock of its
// own. Close must wait for every call already inside, after which
// MergeLatency reads a final histogram, and a call after it must return an
// error wrapping serve.ErrClosed.
type Replica interface {
	Outputs(ctx context.Context, batch [][]float64) ([]int, error)
	ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error)
	MergeLatency(h *serve.LatencyHistogram)
	QueueDepth() int
	Close() error
}

// Source describes one deployment version: a factory building an engine
// of the given number of replicas programmed with its bitstream, and the
// sampling window that engine quantizes with, which Stats reports and
// nothing else reads. The factory is called at registration and when a
// swap builds the replacement.
type Source struct {
	New    func(replicas int) (Replica, error)
	Window int
}

// Class is a tenant's QoS class. The zero value is ClassBatch, so an
// unconfigured tenant gets the most conservative admission share.
type Class int

// QoS classes, in ascending admission share.
const (
	// ClassBatch is admitted up to half the model's capacity.
	ClassBatch Class = iota
	// ClassSilver is admitted up to three quarters of capacity.
	ClassSilver
	// ClassGold is admitted up to full capacity.
	ClassGold
)

// fraction is the share of a model's in-flight capacity the class may
// occupy before its requests shed with ErrOverloaded. Gold riding to the
// full limit while batch sheds at half is what keeps interactive tenants
// responsive when batch traffic spikes.
func (c Class) fraction() float64 {
	switch c {
	case ClassGold:
		return 1.0
	case ClassSilver:
		return 0.75
	}
	return 0.5
}

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassGold:
		return "gold"
	case ClassSilver:
		return "silver"
	}
	return "batch"
}

// ParseClass parses a class name ("gold", "silver", "batch").
func ParseClass(s string) (Class, error) {
	switch s {
	case "gold":
		return ClassGold, nil
	case "silver":
		return ClassSilver, nil
	case "batch", "":
		return ClassBatch, nil
	}
	return 0, fmt.Errorf("fleet: unknown QoS class %q (want gold, silver or batch)", s)
}

// Tenant configures one tenant's admission.
type Tenant struct {
	// Class is the tenant's QoS class (default ClassBatch).
	Class Class
	// Quota bounds the tenant's fleet-wide in-flight requests; 0 means
	// unlimited.
	Quota int
}

// Options configures a Fleet.
type Options struct {
	// Chips is the fleet's simulated chip pool; replicas allocate from it
	// and registration and swaps fail when it is exhausted. 0 means 64.
	Chips int
	// Tenants maps tenant names to their admission config. Unknown
	// tenants are admitted at ClassBatch with no quota.
	Tenants map[string]Tenant
}

func (o Options) withDefaults() Options {
	if o.Chips <= 0 {
		o.Chips = 64
	}
	return o
}

// ModelConfig shapes one model's replica pool.
type ModelConfig struct {
	// Replicas is the pool size, fixed for the model's life and kept
	// across swaps (0 = 4).
	Replicas int
	// ChipsPerReplica is how many fleet chips one replica occupies
	// (0 = 1; a sharded deployment's replica occupies its compiled chip
	// count).
	ChipsPerReplica int
	// QueueDepth is the per-replica admission depth: a model's in-flight
	// capacity is replicas × QueueDepth, scaled by each class's share
	// (0 = 64). It is the only bound on how many requests wait in the
	// model's engine: the engine itself holds any number of waiters.
	QueueDepth int
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Replicas <= 0 {
		c.Replicas = 4
	}
	if c.ChipsPerReplica <= 0 {
		c.ChipsPerReplica = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// version is one immutable bitstream generation of a model: the engine
// serving it, whose executors are the model's replicas, and the window
// Stats reports for it. A swap replaces the whole version; nothing in one
// ever changes.
type version struct {
	id     int
	window int
	eng    Replica
}

// model is one served model: its current version (atomic route pointer),
// its pool shape and its serving counters. Its latencies live in its
// engines: retired holds every replaced engine's, merged in once that
// engine's Close returned, and Stats adds the live engine's.
type model struct {
	name  string
	cfg   ModelConfig // immutable: cfg.Replicas is every version's executor count
	start time.Time

	cur atomic.Pointer[version]

	// swapMu serializes swaps and close against each other; requests
	// never take it.
	swapMu  sync.Mutex
	closed  atomic.Bool
	retired serve.LatencyHistogram

	// Written by every request: kept apart from the fields above, which
	// every request reads, by the histogram's size.
	inflight  atomic.Int64
	requests  atomic.Uint64
	errors    atomic.Uint64
	overload  atomic.Uint64
	quotaShed atomic.Uint64
}

// tenantState tracks one configured tenant's class and in-flight count.
type tenantState struct {
	class    Class
	quota    int64
	inflight atomic.Int64
}

// Fleet serves many models on a bounded chip pool. Construct with New,
// register models with AddModel, serve with Run, replace bitstreams
// with Swap, and Close when done. All methods are safe for concurrent
// use.
type Fleet struct {
	opts    Options
	tenants map[string]*tenantState // immutable after New

	// models is the route table, read without a lock: a map nobody
	// mutates, which AddModel replaces with a grown copy under mu. closed
	// is set under mu too, and read by requests without it.
	models atomic.Pointer[map[string]*model]
	closed atomic.Bool

	mu        sync.Mutex
	chipsUsed int
	swaps     []SwapEvent
}

// New builds an empty fleet.
func New(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:    opts,
		tenants: make(map[string]*tenantState, len(opts.Tenants)),
	}
	for name, t := range opts.Tenants {
		f.tenants[name] = &tenantState{class: t.Class, quota: int64(t.Quota)}
	}
	f.models.Store(&map[string]*model{})
	return f
}

// AddModel registers a model under name and builds its engine of
// cfg.Replicas replicas from src. The engine's chips are reserved from the
// fleet first — registration fails with ErrNoChips when they cannot fit —
// and the engine is built outside the fleet's lock, so requests to other
// models are served meanwhile.
func (f *Fleet) AddModel(name string, src Source, cfg ModelConfig) error {
	if name == "" {
		return fmt.Errorf("fleet: empty model name")
	}
	if src.New == nil || src.Window <= 0 {
		return fmt.Errorf("fleet: model %q: source needs an engine factory and a positive window", name)
	}
	cfg = cfg.withDefaults()
	need := cfg.Replicas * cfg.ChipsPerReplica
	if err := f.vacant(name); err != nil {
		return err
	}
	if err := f.reserveChips(need); err != nil {
		return fmt.Errorf("fleet: model %q: %w", name, err)
	}
	eng, err := src.New(cfg.Replicas)
	if err != nil {
		f.releaseChips(need)
		return fmt.Errorf("fleet: model %q: building %d replicas: %w", name, cfg.Replicas, err)
	}
	m := &model{name: name, cfg: cfg, start: time.Now()}
	m.cur.Store(&version{id: 1, window: src.Window, eng: eng})
	f.mu.Lock()
	if err := f.vacant(name); err != nil { // closed, or registered meanwhile
		f.chipsUsed -= need
		f.mu.Unlock()
		_ = eng.Close()
		return err
	}
	old := *f.models.Load()
	models := make(map[string]*model, len(old)+1)
	for n, om := range old {
		models[n] = om
	}
	models[name] = m
	f.models.Store(&models)
	f.mu.Unlock()
	return nil
}

// vacant reports why name cannot be registered, if it cannot. Its answer
// holds only as long as f.mu is held.
func (f *Fleet) vacant(name string) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if _, dup := (*f.models.Load())[name]; dup {
		return fmt.Errorf("fleet: model %q already registered", name)
	}
	return nil
}

// lookup resolves a model name, taking no lock.
func (f *Fleet) lookup(name string) (*model, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	m, ok := (*f.models.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// admitLimit is the in-flight ceiling a class may occupy on a model:
// its share of replicas × per-replica admission depth, never below 1 so a
// one-replica model still serves every class.
func admitLimit(c Class, replicas, queueDepth int) int64 {
	l := int64(c.fraction() * float64(replicas*queueDepth))
	if l < 1 {
		l = 1
	}
	return l
}

// admit claims one of the model's in-flight places for a request of
// class c, against the limit the model's replica count allows; the
// caller gives the place back with m.inflight.Add(-1).
func (m *model) admit(c Class) (limit int64, ok bool) {
	limit = admitLimit(c, m.cfg.Replicas, m.cfg.QueueDepth)
	if m.inflight.Add(1) > limit {
		m.inflight.Add(-1)
		return limit, false
	}
	return limit, true
}

// enter is Run's admission prologue: it resolves the model, then claims
// one of the tenant's quota places and one of the model's class-weighted
// in-flight places — one of each per call, however many samples it
// carries. The caller gives both back with m.leave(ts).
func (f *Fleet) enter(name, tenant string) (m *model, ts *tenantState, err error) {
	if m, err = f.lookup(name); err != nil {
		return nil, nil, err
	}
	cls := ClassBatch
	if t := f.tenants[tenant]; t != nil {
		cls = t.class
		if t.quota > 0 {
			if t.inflight.Add(1) > t.quota {
				t.inflight.Add(-1)
				m.quotaShed.Add(1)
				return nil, nil, fmt.Errorf("%w: tenant %q at in-flight quota %d (model %q)",
					ErrTenantQuota, tenant, t.quota, name)
			}
			ts = t
		}
	}
	if limit, ok := m.admit(cls); !ok {
		if ts != nil {
			ts.inflight.Add(-1)
		}
		m.overload.Add(1)
		return nil, nil, fmt.Errorf("%w: model %q at %s-class admission limit %d",
			ErrOverloaded, name, cls, limit)
	}
	return m, ts, nil
}

// leave gives back the places enter claimed.
func (m *model) leave(ts *tenantState) {
	m.inflight.Add(-1)
	if ts != nil {
		ts.inflight.Add(-1)
	}
}

// Run serves one call for (model, tenant): admission (tenant quota, then
// class-weighted model capacity), then the current version's engine. The
// call takes one tenant quota place and one model place whatever its
// length, runs every sample on one version — whose id it returns — and
// counts len(batch) requests; its engine records one latency, unless the
// batch is empty. With classes set it returns each sample's argmax class
// (the engine's ClassifyBatch), otherwise every sample's output counts
// back to back (Outputs).
func (f *Fleet) Run(ctx context.Context, name, tenant string, batch [][]float64, classes bool) (out []int, version int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, ts, err := f.enter(name, tenant)
	if err != nil {
		return nil, 0, err
	}
	defer m.leave(ts)
	for {
		v := m.cur.Load()
		if classes {
			out, err = v.eng.ClassifyBatch(ctx, batch)
		} else {
			out, err = v.eng.Outputs(ctx, batch)
		}
		if errors.Is(err, serve.ErrClosed) {
			if m.closed.Load() {
				return nil, 0, ErrClosed
			}
			// A swap moved the route on between loading v and the call.
			// repoint stores the new version before it closes the old
			// engine, so the retry finds it; the call is intact.
			continue
		}
		m.requests.Add(uint64(len(batch)))
		if err != nil {
			m.errors.Add(uint64(len(batch)))
			return nil, 0, err
		}
		return out, v.id, nil
	}
}

// Swap replaces name's bitstream with src, zero-downtime: it builds the
// replacement engine (same replica count as the current one), re-points
// the route at it and closes the old engine, which waits for every call
// already inside. Until then both engines hold chips, so a fleet needs
// one model's worth of headroom to swap (ErrNoChips otherwise). In-flight
// requests are never dropped: each runs to completion on the version it
// reached, stamped with that version's id.
func (f *Fleet) Swap(ctx context.Context, name string, src Source) (SwapEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src.New == nil || src.Window <= 0 {
		return SwapEvent{}, fmt.Errorf("fleet: swap %q: source needs an engine factory and a positive window", name)
	}
	m, err := f.lookup(name)
	if err != nil {
		return SwapEvent{}, err
	}
	m.swapMu.Lock()
	defer m.swapMu.Unlock()
	if m.closed.Load() {
		return SwapEvent{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return SwapEvent{}, err
	}
	start := time.Now()
	from := m.cur.Load().id
	// The old engine's drain is bounded — every call inside is a finite
	// simulation — so a cancelled ctx does not abandon it.
	if err := f.repoint(m, from+1, src); err != nil {
		return SwapEvent{}, fmt.Errorf("swapping %q: %w", name, err)
	}
	ev := SwapEvent{
		Model:       name,
		FromVersion: from,
		ToVersion:   from + 1,
		Replicas:    m.cfg.Replicas,
		At:          start,
		DurationMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	f.recordSwap(ev)
	return ev, nil
}

// repoint is the one way a model's engine changes — Swap and Close alike.
// It builds an engine of the model's replicas from src and stores it, as
// version id, for requests to find (a zero src, closing, builds none);
// then it closes the old engine, which returns once every call inside it
// has — one that arrives after retries on the new route — and returns one
// engine's chips. A replaced engine's latencies, final once its Close has
// returned, are merged into m.retired; a closing model keeps its last
// engine as the route, and Stats reads that one live. The new engine's
// chips are claimed first, so during a swap the model holds both engines'
// worth. Under m.swapMu.
func (f *Fleet) repoint(m *model, id int, src Source) error {
	old, chips := m.cur.Load(), m.cfg.Replicas*m.cfg.ChipsPerReplica
	if src.New != nil {
		if err := f.reserveChips(chips); err != nil {
			return err
		}
		eng, err := src.New(m.cfg.Replicas)
		if err != nil {
			f.releaseChips(chips)
			return fmt.Errorf("fleet: model %q: building %d replicas: %w", m.name, m.cfg.Replicas, err)
		}
		m.cur.Store(&version{id: id, window: src.Window, eng: eng})
	}
	// The route has moved on, and a simulated chip's teardown has nothing
	// actionable to report.
	_ = old.eng.Close()
	if src.New != nil {
		old.eng.MergeLatency(&m.retired)
	}
	f.releaseChips(chips)
	return nil
}

// reserveChips claims n chips from the pool.
func (f *Fleet) reserveChips(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return ErrClosed
	}
	if f.chipsUsed+n > f.opts.Chips {
		return fmt.Errorf("%w: need %d, %d of %d free", ErrNoChips, n, f.opts.Chips-f.chipsUsed, f.opts.Chips)
	}
	f.chipsUsed += n
	return nil
}

func (f *Fleet) releaseChips(n int) {
	f.mu.Lock()
	f.chipsUsed -= n
	f.mu.Unlock()
}

func (f *Fleet) recordSwap(ev SwapEvent) {
	f.mu.Lock()
	f.swaps = append(f.swaps, ev)
	f.mu.Unlock()
}

// Close closes every model's engine, which waits for the calls inside it,
// and returns its chips. Idempotent; Run afterwards returns ErrClosed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return nil
	}
	f.closed.Store(true)
	f.mu.Unlock()
	for _, m := range *f.models.Load() {
		m.swapMu.Lock()
		m.closed.Store(true)
		_ = f.repoint(m, m.cur.Load().id, Source{}) // builds and claims nothing: cannot fail
		m.swapMu.Unlock()
	}
	return nil
}
