package fleet

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpsa/internal/serve"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestScaleUpOnBacklogThenDownOnIdle drives the autoscaler with faked
// replica queue depths: sustained backlog grows the pool to MaxReplicas,
// and a subsequently idle pool drains back to MinReplicas.
func TestScaleUpOnBacklogThenDownOnIdle(t *testing.T) {
	f := New(Options{
		Chips:          16,
		ScaleInterval:  2 * time.Millisecond,
		ScaleUpBacklog: 4,
		ScaleUpTicks:   2,
		IdleTicks:      3,
	})
	defer f.Close()
	src := &fakeSource{marker: 1, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MinReplicas: 1, MaxReplicas: 3, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	// Fake sustained backlog on every replica (new ones included, so the
	// scaler keeps seeing pressure until it hits MaxReplicas).
	setDepths := func(d int64) {
		for _, r := range src.replicas() {
			r.depth.Store(d)
		}
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				setDepths(10)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	waitFor(t, "scale-up to MaxReplicas", func() bool {
		return f.Stats().Models["m"].Replicas == 3
	})
	close(stop)
	if _, used := f.Chips(); used != 3 {
		t.Fatalf("chips used at peak = %d, want 3", used)
	}
	m, err := f.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "admission's replica count to follow the pool up", func() bool { return m.replicas.Load() == 3 })
	// Go idle: zero depth, nothing in flight.
	setDepths(0)
	waitFor(t, "scale-down to MinReplicas", func() bool {
		return f.Stats().Models["m"].Replicas == 1
	})
	if _, used := f.Chips(); used != 1 {
		t.Fatalf("chips used after idle = %d, want 1", used)
	}
	waitFor(t, "admission's replica count to follow the pool down", func() bool { return m.replicas.Load() == 1 })
	st := f.Stats().Models["m"]
	if st.ScaleUps < 2 || st.ScaleDowns < 2 {
		t.Fatalf("scale counters = up %d / down %d, want ≥ 2 each", st.ScaleUps, st.ScaleDowns)
	}
	// Requests still complete on the shrunken pool (removed replicas were
	// closed, not leaked into the route).
	res, err := f.Infer(context.Background(), "m", "t", []float64{1})
	if err != nil || res.Version != 1 {
		t.Fatalf("post-scale request = %+v, %v", res, err)
	}
}

// TestScaleUpStopsAtChipPool pins that the autoscaler respects the chip
// pool: with only one free chip, a backlogged model gains exactly one
// replica no matter how long the pressure lasts.
func TestScaleUpStopsAtChipPool(t *testing.T) {
	f := New(Options{
		Chips:          2,
		ScaleInterval:  2 * time.Millisecond,
		ScaleUpBacklog: 1,
		ScaleUpTicks:   1,
		IdleTicks:      1 << 30, // never scale down
	})
	defer f.Close()
	src := &fakeSource{marker: 1, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MaxReplicas: 8, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for _, r := range src.replicas() {
					r.depth.Store(100)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer close(stop)
	waitFor(t, "scale-up to the chip pool", func() bool {
		return f.Stats().Models["m"].Replicas == 2
	})
	// Give it time to (incorrectly) try to exceed the pool.
	time.Sleep(30 * time.Millisecond)
	if got := f.Stats().Models["m"].Replicas; got != 2 {
		t.Fatalf("replicas = %d, want 2 (chip pool is 2)", got)
	}
	if _, used := f.Chips(); used != 2 {
		t.Fatalf("chips used = %d, want 2", used)
	}
}

// parkCtx is the context of a batch call that parks its engine's executor:
// Err blocks once the engine has run the call's first chunk — between two
// chunks, executor in hand — until gate closes. No wall clock involved.
type parkCtx struct {
	context.Context
	eng          *serve.Engine
	once         sync.Once
	parked, gate chan struct{}
}

func (p *parkCtx) Err() error {
	if p.eng.Stats().ExecBatches > 0 {
		p.once.Do(func() { close(p.parked) })
		<-p.gate
	}
	return nil
}

// TestScaleUpOnWaitingCallers runs the autoscaler on what real replicas
// report. A serve.Engine replica's QueueDepth is the callers waiting for
// its executor, so requests piled up behind a busy one-replica model read
// as exactly that backlog — where a replica that drained a queue eagerly
// read 0 while busy — and the default-shaped policy adds one replica after
// ScaleUpTicks ticks of it.
func TestScaleUpOnWaitingCallers(t *testing.T) {
	const callers, maxBatch = 6, 4
	rng := rand.New(rand.NewSource(5))
	net, err := trainer.NewMLP(rng, []int{8, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	copts := synth.DefaultOptions()
	copts.Weights = net.WeightSource()
	_, prog, err := synth.Compile(net.Graph("fleet-test"), copts)
	if err != nil {
		t.Fatal(err)
	}
	var engines []*serve.Engine // appended under the fleet's own serialization of Source.New
	src := Source{Window: prog.Params.SamplingWindow(), New: func() (Replica, error) {
		eng, err := serve.New(prog, serve.Options{Workers: 1, MaxBatch: maxBatch, Mode: synth.ModeReference})
		if err != nil {
			return nil, err
		}
		engines = append(engines, eng)
		return eng, nil
	}}
	f := New(Options{Chips: 16, ScaleInterval: time.Hour, ScaleUpBacklog: 4, ScaleUpTicks: 2})
	defer f.Close()
	if err := f.AddModel("m", src, ModelConfig{Replicas: 1, MaxReplicas: 4}); err != nil {
		t.Fatal(err)
	}

	// Park the replica's one executor under a two-chunk batch call.
	eng := engines[0]
	batch := make([][]int, 2*maxBatch)
	for i := range batch {
		batch[i] = make([]int, prog.InputSize)
	}
	park := &parkCtx{Context: context.Background(), eng: eng, parked: make(chan struct{}), gate: make(chan struct{})}
	holder := make(chan error, 1)
	go func() {
		_, err := eng.InferBatch(park, batch)
		holder <- err
	}()
	<-park.parked
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			_, err := f.Infer(context.Background(), "m", "t", make([]float64, prog.InputSize))
			errs <- err
		}()
	}
	for eng.QueueDepth() < callers {
		runtime.Gosched()
	}
	if st := f.Stats().Models["m"]; st.QueueDepth != callers || st.InFlight != callers {
		t.Errorf("backlog/in flight = %d/%d, want %d/%d", st.QueueDepth, st.InFlight, callers, callers)
	}
	f.scaleTick()
	if st := f.Stats().Models["m"]; st.Replicas != 1 || st.ScaleUps != 0 {
		t.Errorf("after one tick of backlog: %d replicas, %d scale-ups; want 1, 0", st.Replicas, st.ScaleUps)
	}
	f.scaleTick()
	// Two replicas carry a backlog of 6 under the threshold of 2 × 4: no
	// further growth however long it lasts.
	f.scaleTick()
	f.scaleTick()
	if st := f.Stats().Models["m"]; st.Replicas != 2 || st.ScaleUps != 1 {
		t.Errorf("after sustained backlog: %d replicas, %d scale-ups; want 2, 1", st.Replicas, st.ScaleUps)
	}
	close(park.gate)
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Errorf("waiting request: %v", err)
		}
	}
	if err := <-holder; err != nil {
		t.Errorf("parked batch call: %v", err)
	}
}
