// Package fleet schedules many compiled deployments onto a bounded pool
// of simulated chips and serves them concurrently — the layer above one
// serve.Engine that a production FPSA installation would run: per-model
// replica pools (each replica a programmed execution engine occupying
// chips), admission control with per-tenant QoS classes, backlog-driven
// autoscaling, and zero-downtime bitstream hot-swap.
//
// The swap protocol is the heart of the package. Every model points at a
// version — an immutable bitstream generation carrying its replica pool
// and input quantization window — through an atomic pointer. A request
// pins the version it will run on (acquire/release with a pending count)
// and is dispatched to the replica with the fewest pinned requests — what
// a replica actually has outstanding, waiting or executing, so nothing
// waits behind a busy replica while a sibling sits idle. Because of the
// pin, Swap can atomically re-point the route to a freshly built pool and
// then wait for the old version to drain: no in-flight request is ever
// dropped, every response is attributable to exactly one version, and a
// request never sees the new version's window with the old version's
// replicas (torn reads are structurally impossible — window and pool
// live on the one pinned version).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpsa/internal/serve"
	"fpsa/internal/synth"
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

// Replica is one serving replica of a model version: a programmed
// execution engine. *serve.Engine satisfies it. QueueDepth is the
// replica's backlog — requests dispatched to it that are waiting for its
// executor right now, not counting the one running — and is what the
// autoscaler reads. Routing balances on pinned counts instead, which
// include the running request.
type Replica interface {
	Infer(ctx context.Context, input []int) ([]int, error)
	QueueDepth() int
	Close() error
}

// Source describes one deployment version: a factory minting replicas
// programmed with its bitstream, and the input quantization window its
// requests are encoded with. The factory is called once per replica —
// at registration, on scale-up, and when a swap builds the replacement
// pool.
type Source struct {
	New    func() (Replica, error)
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
	// and registration/scale-up fail when it is exhausted. 0 means 64.
	Chips int
	// Tenants maps tenant names to their admission config. Unknown
	// tenants are admitted at ClassBatch with no quota.
	Tenants map[string]Tenant
	// ScaleInterval is the autoscaler tick (0 = 50ms). Scale decisions
	// are made per tick from sustained observations, so the thresholds
	// below are counted in ticks.
	ScaleInterval time.Duration
	// ScaleUpBacklog is the per-replica waiting count that counts as
	// backlog (0 = 4); sustained for ScaleUpTicks consecutive ticks
	// (0 = 2), the model gains a replica (chips permitting, up to its
	// MaxReplicas).
	ScaleUpBacklog int
	ScaleUpTicks   int
	// IdleTicks is how many consecutive ticks with nothing waiting and no
	// in-flight requests drop one replica (0 = 40), down to MinReplicas.
	IdleTicks int
}

func (o Options) withDefaults() Options {
	if o.Chips <= 0 {
		o.Chips = 64
	}
	if o.ScaleInterval <= 0 {
		o.ScaleInterval = 50 * time.Millisecond
	}
	if o.ScaleUpBacklog <= 0 {
		o.ScaleUpBacklog = 4
	}
	if o.ScaleUpTicks <= 0 {
		o.ScaleUpTicks = 2
	}
	if o.IdleTicks <= 0 {
		o.IdleTicks = 40
	}
	return o
}

// ModelConfig shapes one model's replica pool.
type ModelConfig struct {
	// Replicas is the initial pool size (0 = 1); the autoscaler moves it
	// within [MinReplicas, MaxReplicas] (0 = 1 and max(4, Replicas)).
	Replicas    int
	MinReplicas int
	MaxReplicas int
	// ChipsPerReplica is how many fleet chips one replica occupies
	// (0 = 1; a sharded deployment's replica occupies its compiled chip
	// count).
	ChipsPerReplica int
	// QueueDepth is the per-replica admission depth: a model's in-flight
	// capacity is replicas × QueueDepth, scaled by each class's share
	// (0 = 64). It is the only bound on how many requests wait in a
	// replica: the engines themselves hold any number of waiters.
	QueueDepth int
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MinReplicas <= 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = c.Replicas
		if c.MaxReplicas < 4 {
			c.MaxReplicas = 4
		}
	}
	if c.Replicas < c.MinReplicas {
		c.Replicas = c.MinReplicas
	}
	if c.MaxReplicas < c.Replicas {
		c.MaxReplicas = c.Replicas
	}
	if c.ChipsPerReplica <= 0 {
		c.ChipsPerReplica = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// version is one immutable bitstream generation of a model: a replica
// pool plus the quantization window requests to it are encoded with.
// Requests pin it (acquire/release) so a swap can re-point the route and
// then wait for the pending count to drain before tearing replicas down.
type version struct {
	id     int
	window int

	mu       sync.Mutex
	pending  int
	retired  bool
	drained  chan struct{}
	replicas []*slot
}

// slot is one replica of a version's pool and the number of requests
// currently pinned to it (under version.mu).
type slot struct {
	Replica
	pinned int
}

func newVersion(id, window int) *version {
	return &version{id: id, window: window, drained: make(chan struct{})}
}

// acquire pins the version and its replica with the fewest pinned
// requests (the first such, so an idle pool fills from replica 0). It
// fails once the version is retired (a swap has re-pointed the route) or
// its pool is empty; the caller retries on the model's current version.
func (v *version) acquire() (*slot, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.retired || len(v.replicas) == 0 {
		return nil, false
	}
	best := v.replicas[0]
	for _, s := range v.replicas[1:] {
		if s.pinned < best.pinned {
			best = s
		}
	}
	best.pinned++
	v.pending++
	return best, true
}

// release unpins the version and the replica acquire returned; the last
// release of a retired version signals the drain.
func (v *version) release(s *slot) {
	v.mu.Lock()
	s.pinned--
	v.pending--
	if v.retired && v.pending == 0 {
		close(v.drained)
	}
	v.mu.Unlock()
}

// retire marks the version dead to new acquires and returns the channel
// that closes when the last pinned request releases. Idempotent.
func (v *version) retire() <-chan struct{} {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.retired {
		v.retired = true
		if v.pending == 0 {
			close(v.drained)
		}
	}
	return v.drained
}

// takeReplicas empties the pool (after drain) so the caller can close
// the replicas outside the lock.
func (v *version) takeReplicas() []*slot {
	v.mu.Lock()
	defer v.mu.Unlock()
	rs := v.replicas
	v.replicas = nil
	return rs
}

// addReplica grows the pool; it refuses on a retired version (the caller
// closes the orphan replica itself).
func (v *version) addReplica(r Replica) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.retired {
		return false
	}
	v.replicas = append(v.replicas, &slot{Replica: r})
	return true
}

// removeReplica pops one replica when the pool is above min. The caller
// closes it: requests that pinned it before removal drain through the
// engine's own close path, and any that lose the race retry on a live
// replica (see Fleet.Infer).
func (v *version) removeReplica(min int) Replica {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.retired || len(v.replicas) <= min {
		return nil
	}
	r := v.replicas[len(v.replicas)-1]
	v.replicas = v.replicas[:len(v.replicas)-1]
	return r.Replica
}

// count reports the pool size and the summed replica backlog (requests
// waiting for an executor — what the autoscaler and the stats read).
func (v *version) count() (replicas, depth int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range v.replicas {
		depth += r.QueueDepth()
	}
	return len(v.replicas), depth
}

// model is one served model: its current version (atomic route pointer),
// the source that mints replicas for scale-up, and its serving counters.
type model struct {
	name  string
	cfg   ModelConfig
	start time.Time

	cur atomic.Pointer[version]

	// swapMu serializes swaps, scaling and close against each other;
	// requests never take it.
	swapMu sync.Mutex
	src    Source // current version's source, for scale-up (under swapMu)
	closed atomic.Bool

	// replicas is the live pool size of the current version, written
	// under swapMu by registration and the autoscaler (a swap rebuilds
	// the pool at the same size). Admission reads it instead of the
	// route's pool, which a swap may be tearing down under a request that
	// loaded the route just before it was re-pointed.
	replicas atomic.Int64

	inflight   atomic.Int64
	requests   atomic.Uint64
	errors     atomic.Uint64
	overload   atomic.Uint64
	quotaShed  atomic.Uint64
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
	lat        serve.LatencyRing

	// autoscaler-local tick counters (only the scale goroutine touches
	// them).
	backlogTicks int
	idleTicks    int
}

// tenantState tracks one configured tenant's class and in-flight count.
type tenantState struct {
	class    Class
	quota    int64
	inflight atomic.Int64
}

// Result is one completed inference, stamped with the version that
// served it.
type Result struct {
	Output  []int
	Version int
}

// Fleet serves many models on a bounded chip pool. Construct with New,
// register models with AddModel, serve with Infer, replace bitstreams
// with Swap, and Close when done. All methods are safe for concurrent
// use.
type Fleet struct {
	opts    Options
	tenants map[string]*tenantState // immutable after New

	mu        sync.RWMutex
	closed    bool
	models    map[string]*model
	chipsUsed int
	swaps     []SwapEvent

	stopScale chan struct{}
	scaleWG   sync.WaitGroup
}

// New builds an empty fleet and starts its autoscaler.
func New(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:      opts,
		tenants:   make(map[string]*tenantState, len(opts.Tenants)),
		models:    make(map[string]*model),
		stopScale: make(chan struct{}),
	}
	for name, t := range opts.Tenants {
		f.tenants[name] = &tenantState{class: t.Class, quota: int64(t.Quota)}
	}
	f.scaleWG.Add(1)
	go f.autoscale()
	return f
}

// Chips reports the pool size and how many chips replicas currently
// occupy.
func (f *Fleet) Chips() (total, used int) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.opts.Chips, f.chipsUsed
}

// AddModel registers a model under name and builds its initial replica
// pool from src. The pool's chips are reserved from the fleet;
// registration fails with ErrNoChips when the pool cannot fit.
func (f *Fleet) AddModel(name string, src Source, cfg ModelConfig) error {
	if name == "" {
		return fmt.Errorf("fleet: empty model name")
	}
	if src.New == nil || src.Window <= 0 {
		return fmt.Errorf("fleet: model %q: source needs a replica factory and a positive window", name)
	}
	cfg = cfg.withDefaults()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, dup := f.models[name]; dup {
		return fmt.Errorf("fleet: model %q already registered", name)
	}
	need := cfg.Replicas * cfg.ChipsPerReplica
	if f.chipsUsed+need > f.opts.Chips {
		return fmt.Errorf("%w: model %q needs %d chips, %d of %d free",
			ErrNoChips, name, need, f.opts.Chips-f.chipsUsed, f.opts.Chips)
	}
	v := newVersion(1, src.Window)
	for i := 0; i < cfg.Replicas; i++ {
		r, err := src.New()
		if err != nil {
			closeAll(v.takeReplicas())
			return fmt.Errorf("fleet: model %q: building replica %d: %w", name, i, err)
		}
		v.replicas = append(v.replicas, &slot{Replica: r})
	}
	f.chipsUsed += need
	m := &model{name: name, cfg: cfg, src: src, start: time.Now()}
	m.replicas.Store(int64(cfg.Replicas))
	m.cur.Store(v)
	f.models[name] = m
	return nil
}

// lookup resolves a model name under the read lock.
func (f *Fleet) lookup(name string) (*model, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	m, ok := f.models[name]
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
// class c, against the limit the live replica count allows; the caller
// gives the place back with m.inflight.Add(-1).
func (m *model) admit(c Class) (limit int64, ok bool) {
	limit = admitLimit(c, int(m.replicas.Load()), m.cfg.QueueDepth)
	if m.inflight.Add(1) > limit {
		m.inflight.Add(-1)
		return limit, false
	}
	return limit, true
}

// Infer serves one request for (model, tenant): admission (tenant quota,
// then class-weighted model capacity), then version pinning and replica
// dispatch. The response carries the id of the exact version that ran
// the request. Features are quantized against the pinned version's
// window, so a mid-flight swap can never mix one version's encoding
// with another's replicas.
func (f *Fleet) Infer(ctx context.Context, name, tenant string, features []float64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := f.lookup(name)
	if err != nil {
		return Result{}, err
	}
	cls := ClassBatch
	if ts := f.tenants[tenant]; ts != nil {
		cls = ts.class
		if ts.quota > 0 {
			if ts.inflight.Add(1) > ts.quota {
				ts.inflight.Add(-1)
				m.quotaShed.Add(1)
				return Result{}, fmt.Errorf("%w: tenant %q at in-flight quota %d (model %q)",
					ErrTenantQuota, tenant, ts.quota, name)
			}
			defer ts.inflight.Add(-1)
		}
	}
	if limit, ok := m.admit(cls); !ok {
		m.overload.Add(1)
		return Result{}, fmt.Errorf("%w: model %q at %s-class admission limit %d",
			ErrOverloaded, name, cls, limit)
	}
	defer m.inflight.Add(-1)

	start := time.Now()
	for {
		v := m.cur.Load()
		rep, ok := v.acquire()
		if !ok {
			// The route re-pointed under us (swap) — retry on the current
			// version — unless the model or fleet is shutting down.
			if m.closed.Load() {
				return Result{}, ErrClosed
			}
			runtime.Gosched()
			continue
		}
		// The pin comes off by defer: a request that panics under its
		// replica must not leave Swap waiting on it for ever.
		out, err := func() ([]int, error) {
			defer v.release(rep)
			return rep.Infer(ctx, synth.QuantizeInput(features, v.window))
		}()
		if err != nil && errors.Is(err, serve.ErrClosed) {
			if m.closed.Load() {
				return Result{}, ErrClosed
			}
			// The replica was scaled away between acquire and dispatch;
			// the request is intact — retry it on a live replica.
			continue
		}
		m.requests.Add(1)
		m.lat.Record(time.Since(start))
		if err != nil {
			m.errors.Add(1)
			return Result{}, err
		}
		return Result{Output: out, Version: v.id}, nil
	}
}

// Swap replaces name's bitstream with src, zero-downtime: it builds the
// replacement pool (same replica count as the current version), atomically
// re-points the route, waits for every request pinned to the old version
// to complete, then tears the old pool down and returns its chips. While
// the swap is in flight both pools hold chips, so a fleet needs one
// model's worth of headroom to swap (ErrNoChips otherwise). In-flight
// requests are never dropped: each runs to completion on the version it
// pinned, stamped with that version's id.
func (f *Fleet) Swap(ctx context.Context, name string, src Source) (SwapEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src.New == nil || src.Window <= 0 {
		return SwapEvent{}, fmt.Errorf("fleet: swap %q: source needs a replica factory and a positive window", name)
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
	old := m.cur.Load()
	count, _ := old.count()
	need := count * m.cfg.ChipsPerReplica
	if err := f.reserveChips(need); err != nil {
		return SwapEvent{}, fmt.Errorf("swapping %q: %w", name, err)
	}
	next := newVersion(old.id+1, src.Window)
	for i := 0; i < count; i++ {
		r, err := src.New()
		if err != nil {
			closeAll(next.takeReplicas())
			f.releaseChips(need)
			return SwapEvent{}, fmt.Errorf("fleet: swap %q: building replica %d: %w", name, i, err)
		}
		next.replicas = append(next.replicas, &slot{Replica: r})
	}
	m.src = src
	m.cur.Store(next)
	// No new request can pin the old version now; wait out the ones that
	// already did. The wait is bounded — every pinned request is a finite
	// simulation — so a cancelled ctx does not abandon the teardown.
	<-old.retire()
	olds := old.takeReplicas()
	closeAll(olds)
	f.releaseChips(len(olds) * m.cfg.ChipsPerReplica)
	ev := SwapEvent{
		Model:       name,
		FromVersion: old.id,
		ToVersion:   next.id,
		Replicas:    count,
		At:          start,
		DurationMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	f.recordSwap(ev)
	return ev, nil
}

// reserveChips claims n chips from the pool.
func (f *Fleet) reserveChips(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.chipsUsed+n > f.opts.Chips {
		return fmt.Errorf("%w: need %d, %d of %d free", ErrNoChips, n, f.opts.Chips-f.chipsUsed, f.opts.Chips)
	}
	f.chipsUsed += n
	return nil
}

// tryReserveChips is reserveChips for the autoscaler: no error detail,
// just whether the chips were claimed.
func (f *Fleet) tryReserveChips(n int) bool {
	return f.reserveChips(n) == nil
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

// Close stops the autoscaler, retires every model's current version,
// waits for pinned requests to drain and closes every replica.
// Idempotent; Infer afterwards returns ErrClosed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	models := make([]*model, 0, len(f.models))
	for _, m := range f.models {
		models = append(models, m)
	}
	f.mu.Unlock()
	close(f.stopScale)
	f.scaleWG.Wait()
	for _, m := range models {
		m.swapMu.Lock()
		m.closed.Store(true)
		v := m.cur.Load()
		<-v.retire()
		closeAll(v.takeReplicas())
		m.swapMu.Unlock()
	}
	f.mu.Lock()
	f.chipsUsed = 0
	f.mu.Unlock()
	return nil
}

// closeAll closes replicas, dropping errors: the route has already moved
// on, and a simulated chip's teardown has nothing actionable to report.
func closeAll(rs []*slot) {
	for _, r := range rs {
		_ = r.Close()
	}
}
