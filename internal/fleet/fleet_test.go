package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpsa/internal/serve"
)

// fakeReplica is a controllable Replica, standing for a whole engine:
// outputs carry its source's marker (so tests can attribute responses to
// versions), and a call can be made to block on a gate or to panic once.
// Like serve.Engine, Close waits for every call inside and a call after it
// returns serve.ErrClosed.
type fakeReplica struct {
	marker   int
	replicas int           // the count the fleet asked the source for
	gate     chan struct{} // when non-nil, a call blocks until closed
	start    chan struct{} // when non-nil, a call signals entry (buffered)
	poison   atomic.Bool   // when set, the next call panics (and clears it)
	retired  atomic.Bool   // when set, the next call answers serve.ErrClosed (and clears it)

	mu     sync.RWMutex
	closed bool
	calls  sync.WaitGroup
}

// Outputs is the whole batch at once: one entry signal, one wait on the
// gate, and each sample's outputs are the marker and its own length.
func (r *fakeReplica) Outputs(ctx context.Context, batch [][]float64) ([]int, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, serve.ErrClosed
	}
	r.calls.Add(1)
	r.mu.RUnlock()
	defer r.calls.Done()
	if r.poison.CompareAndSwap(true, false) {
		panic("fakeReplica: poisoned request")
	}
	if r.retired.CompareAndSwap(true, false) {
		return nil, serve.ErrClosed
	}
	if r.start != nil {
		r.start <- struct{}{}
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]int, 0, 2*len(batch))
	for _, f := range batch {
		out = append(out, r.marker, len(f))
	}
	return out, nil
}

func (r *fakeReplica) QueueDepth() int { return 0 }

func (r *fakeReplica) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.calls.Wait()
	return nil
}

func (r *fakeReplica) isClosed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// fakeSource mints fakeReplicas stamped with marker, recording them so
// tests can reach in.
type fakeSource struct {
	marker int
	window int
	gate   chan struct{}
	start  chan struct{}

	mu   sync.Mutex
	made []*fakeReplica
	fail error
}

func (s *fakeSource) Source() Source {
	return Source{
		Window: s.window,
		New: func(replicas int) (Replica, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.fail != nil {
				return nil, s.fail
			}
			r := &fakeReplica{marker: s.marker, replicas: replicas, gate: s.gate, start: s.start}
			s.made = append(s.made, r)
			return r, nil
		},
	}
}

func (s *fakeSource) replicas() []*fakeReplica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*fakeReplica(nil), s.made...)
}

func TestInferRoutesAndStamps(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	src := &fakeSource{marker: 7, window: 16}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := f.Infer(context.Background(), "m", "anyone", []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d, want 1", res.Version)
	}
	if len(res.Output) != 2 || res.Output[0] != 7 || res.Output[1] != 2 {
		t.Fatalf("output = %v, want [7 2]", res.Output)
	}
	st := f.Stats().Models["m"]
	if st.Requests != 1 || st.Replicas != 2 || st.Version != 1 || st.Window != 16 {
		t.Fatalf("stats = %+v", st)
	}
	if rs := src.replicas(); len(rs) != 1 || rs[0].replicas != 2 {
		t.Fatalf("built %d engines, want one of 2 replicas", len(rs))
	}
}

func TestUnknownModelAndEmptyRegistration(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	if _, err := f.Infer(context.Background(), "ghost", "t", []float64{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v, want ErrUnknownModel", err)
	}
	if err := f.AddModel("", (&fakeSource{window: 4}).Source(), ModelConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := f.AddModel("m", Source{}, ModelConfig{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	src := &fakeSource{window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddModel("m", src.Source(), ModelConfig{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestChipAccounting(t *testing.T) {
	f := New(Options{Chips: 4})
	defer f.Close()
	src := &fakeSource{window: 4}
	// 3 replicas × 1 chip.
	if err := f.AddModel("a", src.Source(), ModelConfig{Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	// 2 more would exceed the 4-chip pool.
	if err := f.AddModel("b", src.Source(), ModelConfig{Replicas: 2}); !errors.Is(err, ErrNoChips) {
		t.Fatalf("err = %v, want ErrNoChips", err)
	}
	if st := f.Stats(); st.Chips != 4 || st.ChipsUsed != 3 {
		t.Fatalf("chips = %d/%d, want 3/4", st.ChipsUsed, st.Chips)
	}
	// A swap needs headroom for both engines: 3 old + 3 new > 4.
	if _, err := f.Swap(context.Background(), "a", src.Source()); !errors.Is(err, ErrNoChips) {
		t.Fatalf("swap err = %v, want ErrNoChips", err)
	}
	// The failed swap must not leak chips.
	if used := f.Stats().ChipsUsed; used != 3 {
		t.Fatalf("chips used after failed swap = %d, want 3", used)
	}
}

// fillInflight starts n requests that are all inside the engine's Infer
// (blocked on the source's gate) and returns their error channel.
func fillInflight(t *testing.T, f *Fleet, model, tenant string, src *fakeSource, n int) chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := f.Infer(context.Background(), model, tenant, []float64{1})
			errs <- err
		}()
		select {
		case <-src.start:
		case <-time.After(5 * time.Second):
			t.Fatal("request never reached a replica")
		}
	}
	return errs
}

func TestClassWeightedAdmission(t *testing.T) {
	f := New(Options{
		Chips: 16,
		Tenants: map[string]Tenant{
			"gold": {Class: ClassGold},
			// unknown tenants are admitted at ClassBatch
		},
	})
	defer f.Close()
	gate := make(chan struct{})
	src := &fakeSource{window: 4, gate: gate, start: make(chan struct{}, 64)}
	// 1 replica × QueueDepth 4: gold admits 4 in flight, batch admits 2.
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}

	errs := fillInflight(t, f, "m", "nobody", src, 2)
	if _, err := f.Infer(context.Background(), "m", "nobody", []float64{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch over limit: err = %v, want ErrOverloaded", err)
	}
	// Gold still has headroom above batch's 50% share.
	goldErrs := fillInflight(t, f, "m", "gold", src, 2)
	if _, err := f.Infer(context.Background(), "m", "gold", []float64{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gold over limit: err = %v, want ErrOverloaded", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked batch request failed: %v", err)
		}
		if err := <-goldErrs; err != nil {
			t.Fatalf("blocked gold request failed: %v", err)
		}
	}
	st := f.Stats().Models["m"]
	if st.ShedOverload != 2 {
		t.Fatalf("overload sheds = %d, want 2", st.ShedOverload)
	}
}

// TestAdmissionSurvivesRetiredRoute: a request that loaded the route just
// before Swap re-pointed it reaches an engine the swap has closed. It
// retries on the current engine instead of failing, and admission sizes
// its limit from the live replica count — three replicas × depth 4 at
// batch class admit 6 — not from anything the stale route carries.
func TestAdmissionSurvivesRetiredRoute(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	if err := f.AddModel("m", (&fakeSource{marker: 1, window: 4}).Source(), ModelConfig{Replicas: 3, QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	m, err := f.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	stale := m.cur.Load() // the route a request loaded just before the swap
	gate := make(chan struct{})
	next := &fakeSource{marker: 2, window: 4, gate: gate, start: make(chan struct{}, 64)}
	if _, err := f.Swap(context.Background(), "m", next.Source()); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.eng.Outputs(context.Background(), nil); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("retired engine still serves: %v", err)
	}
	// Two requests in flight on the new engine; a third is still admitted.
	errs := fillInflight(t, f, "m", "t", next, 2)
	limit, ok := m.admit(ClassBatch)
	if !ok || limit != 6 {
		t.Errorf("admit after a swap = limit %d, ok %v; want 6, true", limit, ok)
	}
	if ok {
		m.inflight.Add(-1)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats().Models["m"]; st.ShedOverload != 0 || st.Replicas != 3 {
		t.Errorf("overload sheds/replicas = %d/%d, want 0/3", st.ShedOverload, st.Replicas)
	}
}

// TestRetryOnRetiredEngine: a call that meets serve.ErrClosed from an
// engine the route has moved past — closed between the call loading its
// version and reaching the engine — retries on the current route instead
// of failing, single and batch calls alike, and is counted once.
func TestRetryOnRetiredEngine(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	src := &fakeSource{marker: 7, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	r := src.replicas()[0]
	r.retired.Store(true)
	if res, err := f.Infer(context.Background(), "m", "t", []float64{1}); err != nil || res.Output[0] != 7 {
		t.Fatalf("single call = %+v, %v; want it retried onto the route", res, err)
	}
	r.retired.Store(true)
	if outs, v, err := f.InferBatch(context.Background(), "m", "t", [][]float64{{1}, {1}}); err != nil || v != 1 || len(outs) != 2 {
		t.Fatalf("batch call = %v version %d, %v; want it retried onto the route", outs, v, err)
	}
	if st := f.Stats().Models["m"]; st.Requests != 1+2 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 3 requests and no errors", st)
	}
}

// TestAddModelDoesNotStallTraffic: registering a model programs its
// engine outside the fleet's lock, so while model b's factory is still
// building, requests to model a complete and Stats answers.
func TestAddModelDoesNotStallTraffic(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	if err := f.AddModel("a", (&fakeSource{marker: 1, window: 4}).Source(), ModelConfig{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	building, gate := make(chan struct{}), make(chan struct{})
	slow := (&fakeSource{marker: 2, window: 4}).Source()
	build := slow.New
	slow.New = func(replicas int) (Replica, error) {
		close(building)
		<-gate
		return build(replicas)
	}
	added := make(chan error, 1)
	go func() { added <- f.AddModel("b", slow, ModelConfig{Replicas: 1}) }()
	<-building
	served := make(chan error, 1)
	go func() {
		_, err := f.Infer(context.Background(), "a", "t", []float64{1})
		served <- err
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(gate) // let AddModel, and so the deferred Close, finish
		<-added
		t.Fatal("a request to model a waited for model b's engine to be built")
	}
	if used := f.Stats().ChipsUsed; used != 2 {
		t.Errorf("chips used while b builds = %d, want 2 (b's reserved first)", used)
	}
	close(gate)
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if res, err := f.Infer(context.Background(), "b", "t", []float64{1}); err != nil || res.Output[0] != 2 {
		t.Fatalf("request to b = %+v, %v", res, err)
	}
}

func TestTenantQuota(t *testing.T) {
	f := New(Options{
		Chips:   16,
		Tenants: map[string]Tenant{"capped": {Class: ClassGold, Quota: 2}},
	})
	defer f.Close()
	gate := make(chan struct{})
	src := &fakeSource{window: 4, gate: gate, start: make(chan struct{}, 64)}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	errs := fillInflight(t, f, "m", "capped", src, 2)
	if _, err := f.Infer(context.Background(), "m", "capped", []float64{1}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("err = %v, want ErrTenantQuota", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked request failed: %v", err)
		}
	}
	if st := f.Stats().Models["m"]; st.ShedQuota != 1 {
		t.Fatalf("quota sheds = %d, want 1", st.ShedQuota)
	}
}

// TestInferBatchOneAdmission: a batch takes one tenant quota place and one
// model place whatever its length. While a quota-1 tenant's batch holds
// its place, the tenant's next call — single or batch — sheds with
// ErrTenantQuota; the batch itself then completes on one version, every
// output that version's, and counts one request per sample.
func TestInferBatchOneAdmission(t *testing.T) {
	f := New(Options{
		Chips:   16,
		Tenants: map[string]Tenant{"capped": {Class: ClassGold, Quota: 1}},
	})
	defer f.Close()
	gate := make(chan struct{})
	src := &fakeSource{marker: 7, window: 4, gate: gate, start: make(chan struct{}, 64)}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	type reply struct {
		outs    [][]int
		version int
		err     error
	}
	done := make(chan reply, 1)
	go func() {
		outs, v, err := f.InferBatch(context.Background(), "m", "capped", [][]float64{{1}, {1, 0}, {0, 0, 1}})
		done <- reply{outs, v, err}
	}()
	select {
	case <-src.start:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached a replica")
	}
	if st := f.Stats().Models["m"]; st.InFlight != 1 {
		t.Errorf("a 3-sample batch holds %d model places, want 1", st.InFlight)
	}
	if _, err := f.Infer(context.Background(), "m", "capped", []float64{1}); !errors.Is(err, ErrTenantQuota) {
		t.Errorf("single call beside the batch = %v, want ErrTenantQuota", err)
	}
	if _, _, err := f.InferBatch(context.Background(), "m", "capped", [][]float64{{1}}); !errors.Is(err, ErrTenantQuota) {
		t.Errorf("batch call beside the batch = %v, want ErrTenantQuota", err)
	}
	close(gate)
	r := <-done
	if r.err != nil || r.version != 1 || len(r.outs) != 3 {
		t.Fatalf("batch = %v version %d, %v; want 3 outputs from version 1", r.outs, r.version, r.err)
	}
	for i, out := range r.outs {
		if out[0] != 7 || out[1] != i+1 {
			t.Errorf("output %d = %v, want [7 %d]", i, out, i+1)
		}
	}
	if st := f.Stats().Models["m"]; st.Requests != 3 || st.ShedQuota != 2 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 3 requests, 2 quota sheds, nothing in flight", st)
	}
}

// TestEmptyBatchRecordsNoLatency: an empty batch (HTTP "batch": []) runs
// nothing, so it counts no request and records no latency, and the
// percentiles stay those of the calls that ran.
func TestEmptyBatchRecordsNoLatency(t *testing.T) {
	f := New(Options{Chips: 16})
	defer f.Close()
	src := &fakeSource{marker: 7, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		outs, v, err := f.InferBatch(context.Background(), "m", "t", [][]float64{})
		if err != nil || v != 1 || len(outs) != 0 {
			t.Fatalf("empty batch = %v, version %d, %v; want no outputs from version 1", outs, v, err)
		}
	}
	st := f.Stats().Models["m"]
	if st.Requests != 0 || st.P50LatencyUS != 0 || st.P99LatencyUS != 0 || st.P999LatencyUS != 0 {
		t.Errorf("after empty batches: %d requests, latency p50/p99/p999 %g/%g/%g µs; want all zero",
			st.Requests, st.P50LatencyUS, st.P99LatencyUS, st.P999LatencyUS)
	}
	if _, _, err := f.InferBatch(context.Background(), "m", "t", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Models["m"]; st.Requests != 1 || st.P50LatencyUS <= 0 || st.P50LatencyUS != st.P999LatencyUS {
		t.Errorf("after one 1-sample batch: %d requests, p50 %g µs, p999 %g µs; want 1 request and one latency", st.Requests, st.P50LatencyUS, st.P999LatencyUS)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	f := New(Options{Chips: 16})
	gate := make(chan struct{})
	src := &fakeSource{window: 4, gate: gate, start: make(chan struct{}, 64)}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	errs := fillInflight(t, f, "m", "t", src, 2)
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	// Close must wait for the requests inside the engine, not strand them.
	select {
	case <-closed:
		t.Fatal("Close returned while requests were inside the engine")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("in-flight request dropped at close: %v", err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := f.Infer(context.Background(), "m", "t", []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, _, err := f.InferBatch(context.Background(), "m", "t", [][]float64{{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch err = %v, want ErrClosed", err)
	}
	if !errors.Is(ErrClosed, serve.ErrClosed) {
		t.Fatal("fleet.ErrClosed must wrap serve.ErrClosed")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, r := range src.replicas() {
		if !r.isClosed() {
			t.Fatal("engine left open after Close")
		}
	}
}

func TestParseClass(t *testing.T) {
	for s, want := range map[string]Class{"gold": ClassGold, "silver": ClassSilver, "batch": ClassBatch, "": ClassBatch} {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Fatal("ParseClass accepted an unknown class")
	}
}
