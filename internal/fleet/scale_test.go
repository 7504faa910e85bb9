package fleet

import (
	"context"
	"math/rand"
	"reflect"
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

// TestScaleUpOnBacklogThenDownOnIdle drives the autoscaler tick by tick
// with a faked engine queue depth: sustained backlog grows the model to
// MaxReplicas one engine at a time, and an idle model shrinks back to
// MinReplicas. Every resize replaces the engine and closes the old one.
func TestScaleUpOnBacklogThenDownOnIdle(t *testing.T) {
	f := New(Options{Chips: 16, ScaleInterval: time.Hour})
	defer f.Close()
	src := &fakeSource{marker: 1, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MinReplicas: 1, MaxReplicas: 3, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	m, err := f.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	// Backlog on whichever engine is current, new ones included, so the
	// scaler keeps seeing pressure until it hits MaxReplicas.
	for tick := 0; tick < 10*scaleUpTicks; tick++ {
		m.cur.Load().eng.(*fakeReplica).depth.Store(10 * scaleUpBacklog)
		f.scaleTick()
	}
	st := f.Stats()
	if ms := st.Models["m"]; ms.Replicas != 3 || ms.ScaleUps != 2 || st.ChipsUsed != 3 {
		t.Fatalf("after sustained backlog: %d replicas, %d scale-ups, %d chips; want 3, 2, 3", ms.Replicas, ms.ScaleUps, st.ChipsUsed)
	}
	// Go idle: the current engine reads zero depth, nothing in flight.
	m.cur.Load().eng.(*fakeReplica).depth.Store(0)
	for tick := 0; tick < 3*scaleDownTicks; tick++ {
		f.scaleTick()
	}
	st = f.Stats()
	if ms := st.Models["m"]; ms.Replicas != 1 || ms.ScaleDowns != 2 || st.ChipsUsed != 1 {
		t.Fatalf("after idling: %d replicas, %d scale-downs, %d chips; want 1, 2, 1", ms.Replicas, ms.ScaleDowns, st.ChipsUsed)
	}
	rs := src.replicas()
	var sizes []int
	for i, r := range rs {
		sizes = append(sizes, r.replicas)
		if r.isClosed() != (i < len(rs)-1) {
			t.Errorf("engine %d of %d closed = %v; only the current one may be open", i, len(rs), r.isClosed())
		}
	}
	if want := []int{1, 2, 3, 2, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("engines built with %v replicas, want %v", sizes, want)
	}
	// Requests still complete on the shrunken engine, as version 1: a
	// resize keeps the bitstream.
	res, err := f.Infer(context.Background(), "m", "t", []float64{1})
	if err != nil || res.Version != 1 {
		t.Fatalf("post-scale request = %+v, %v", res, err)
	}
}

// TestScaleUpStopsAtChipPool pins that the autoscaler respects the chip
// pool: with only one free chip, a backlogged model gains exactly one
// replica no matter how long the pressure lasts.
func TestScaleUpStopsAtChipPool(t *testing.T) {
	f := New(Options{Chips: 2, ScaleInterval: time.Hour})
	defer f.Close()
	src := &fakeSource{marker: 1, window: 4}
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MaxReplicas: 8, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	m, err := f.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 20*scaleUpTicks; tick++ {
		m.cur.Load().eng.(*fakeReplica).depth.Store(100)
		f.scaleTick()
	}
	st := f.Stats()
	if ms := st.Models["m"]; ms.Replicas != 2 || ms.ScaleUps != 1 || st.ChipsUsed != 2 {
		t.Fatalf("%d replicas, %d scale-ups, %d chips used; want 2, 1, 2 (chip pool is 2)", ms.Replicas, ms.ScaleUps, st.ChipsUsed)
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

// engineSource is a Source of real engines over a small MLP program: one
// executor per replica, shaped by opts. built lists every engine it made.
type engineSource struct {
	prog *synth.Program
	opts serve.Options

	mu    sync.Mutex
	built []*serve.Engine
}

func newEngineSource(t *testing.T, opts serve.Options) *engineSource {
	t.Helper()
	// Trained, so that outputs are not all zero and noise shows in them.
	rng := rand.New(rand.NewSource(5))
	net, err := trainer.NewMLP(rng, []int{8, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	net.Train(rng, trainer.SyntheticClusters(rng, 200, 8, 2, 0.08), trainer.TrainOptions{Epochs: 10})
	copts := synth.DefaultOptions()
	copts.Weights = net.WeightSource()
	_, prog, err := synth.Compile(net.Graph("fleet-test"), copts)
	if err != nil {
		t.Fatal(err)
	}
	return &engineSource{prog: prog, opts: opts}
}

func (s *engineSource) Source() Source {
	return Source{Window: s.prog.Params.SamplingWindow(), New: func(replicas int) (Replica, error) {
		opts := s.opts
		opts.Workers = replicas
		eng, err := serve.New(s.prog, opts)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.built = append(s.built, eng)
		s.mu.Unlock()
		return eng, nil
	}}
}

func (s *engineSource) engine(i int) *serve.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.built[i]
}

// backlog parks one-executor eng under a two-chunk batch call, then sends
// len(xs) requests for model "m" and returns once all of them are waiting
// for eng's executor. Closing the returned parkCtx's gate lets everything
// run; the batch call's error and each request's reply, in xs order, then
// arrive on the channels returned.
func backlog(t *testing.T, f *Fleet, src *engineSource, eng *serve.Engine, xs [][]float64) (*parkCtx, chan error, []chan Result) {
	t.Helper()
	batch := make([][]int, 2*src.opts.MaxBatch)
	for i := range batch {
		batch[i] = make([]int, src.prog.InputSize)
	}
	park := &parkCtx{Context: context.Background(), eng: eng, parked: make(chan struct{}), gate: make(chan struct{})}
	holder := make(chan error, 1)
	go func() {
		_, err := eng.InferBatch(park, batch)
		holder <- err
	}()
	<-park.parked
	replies := make([]chan Result, len(xs))
	for i, x := range xs {
		replies[i] = make(chan Result, 1)
		go func(x []float64, reply chan Result) {
			res, err := f.Infer(context.Background(), "m", "t", x)
			if err != nil {
				t.Errorf("waiting request: %v", err)
			}
			reply <- res
		}(x, replies[i])
	}
	for eng.QueueDepth() < len(xs) {
		runtime.Gosched()
	}
	return park, holder, replies
}

// TestScaleUpOnWaitingCallers runs the autoscaler on what a real engine
// reports. A serve.Engine's QueueDepth is the callers waiting for an
// executor, so requests piled up behind a busy one-replica model read as
// exactly that backlog, and the model grows by one replica after
// scaleUpTicks ticks of it. The resize re-points the model at a fresh
// two-executor engine that serves new traffic at once, while the tick
// waits for the old engine to finish the requests already inside it.
func TestScaleUpOnWaitingCallers(t *testing.T) {
	const callers = 6
	src := newEngineSource(t, serve.Options{MaxBatch: 4, Mode: synth.ModeReference})
	f := New(Options{Chips: 16, ScaleInterval: time.Hour})
	defer f.Close()
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MaxReplicas: 4}); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, src.prog.InputSize)
	xs := make([][]float64, callers)
	for i := range xs {
		xs[i] = x
	}
	park, holder, replies := backlog(t, f, src, src.engine(0), xs)
	if st := f.Stats().Models["m"]; st.QueueDepth != callers || st.InFlight != callers {
		t.Errorf("backlog/in flight = %d/%d, want %d/%d", st.QueueDepth, st.InFlight, callers, callers)
	}
	f.scaleTick()
	if st := f.Stats().Models["m"]; st.Replicas != 1 || st.ScaleUps != 0 {
		t.Errorf("after one tick of backlog: %d replicas, %d scale-ups; want 1, 0", st.Replicas, st.ScaleUps)
	}
	ticked := make(chan struct{})
	go func() {
		f.scaleTick()
		close(ticked)
	}()
	waitFor(t, "the two-replica engine", func() bool { return f.Stats().Models["m"].Replicas == 2 })
	if w := src.engine(1).Workers(); w != 2 {
		t.Errorf("scaled-up engine has %d executors, want 2", w)
	}
	if res, err := f.Infer(context.Background(), "m", "t", x); err != nil || res.Version != 1 {
		t.Errorf("request beside the draining engine = %+v, %v", res, err)
	}
	select {
	case <-ticked:
		t.Fatal("the resize returned before the old engine's requests did")
	default:
	}
	close(park.gate)
	<-ticked
	for _, r := range replies {
		<-r
	}
	if err := <-holder; err != nil {
		t.Errorf("parked batch call: %v", err)
	}
	// The new engine has nothing waiting: no further growth.
	f.scaleTick()
	f.scaleTick()
	if st := f.Stats().Models["m"]; st.Replicas != 2 || st.ScaleUps != 1 || st.QueueDepth != 0 {
		t.Errorf("after the backlog cleared: %d replicas, %d scale-ups, %d waiting; want 2, 1, 0", st.Replicas, st.ScaleUps, st.QueueDepth)
	}
}

// TestNoisyResizeBitIdentical: every executor of a noisy engine is
// programmed with the same variation, so a model's replies do not depend
// on its replica count or on which replica served them. One scale-up and
// one scale-down later every reply — served by the engine being drained,
// by its replacement, and by the shrunken one — still equals a fresh
// one-executor engine's.
func TestNoisyResizeBitIdentical(t *testing.T) {
	src := newEngineSource(t, serve.Options{MaxBatch: 4, Mode: synth.ModeSpikingNoisy, Seed: 61})
	rng := rand.New(rand.NewSource(62))
	xs := make([][]float64, 2*scaleUpBacklog)
	for i := range xs {
		xs[i] = make([]float64, src.prog.InputSize)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	fresh, err := serve.New(src.prog, src.opts)
	if err != nil {
		t.Fatal(err)
	}
	window := src.prog.Params.SamplingWindow()
	want := make([][]int, len(xs))
	for i, x := range xs {
		if want[i], err = fresh.Infer(context.Background(), synth.QuantizeInput(x, window)); err != nil {
			t.Fatal(err)
		}
	}
	fresh.Close()
	f := New(Options{Chips: 16, ScaleInterval: time.Hour})
	defer f.Close()
	if err := f.AddModel("m", src.Source(), ModelConfig{Replicas: 1, MinReplicas: 1, MaxReplicas: 2}); err != nil {
		t.Fatal(err)
	}
	check := func(phase string, i int, res Result) {
		t.Helper()
		if !reflect.DeepEqual(res.Output, want[i]) {
			t.Errorf("%s: input %d = %v, a fresh one-executor engine gives %v", phase, i, res.Output, want[i])
		}
	}
	serveAll := func(phase string) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, x := range xs {
					res, err := f.Infer(context.Background(), "m", "t", x)
					if err != nil {
						t.Errorf("%s: %v", phase, err)
						return
					}
					check(phase, i, res)
				}
			}()
		}
		wg.Wait()
	}
	park, holder, replies := backlog(t, f, src, src.engine(0), xs[:scaleUpBacklog])
	for tick := 0; tick < scaleUpTicks-1; tick++ {
		f.scaleTick()
	}
	ticked := make(chan struct{})
	go func() {
		f.scaleTick()
		close(ticked)
	}()
	waitFor(t, "the scale-up", func() bool { return f.Stats().Models["m"].Replicas == 2 })
	serveAll("beside the draining engine")
	close(park.gate)
	<-ticked
	for i, r := range replies {
		check("drained from the old engine", i, <-r)
	}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	serveAll("on two replicas")
	for tick := 0; tick < scaleDownTicks; tick++ {
		f.scaleTick()
	}
	if st := f.Stats().Models["m"]; st.Replicas != 1 || st.ScaleUps != 1 || st.ScaleDowns != 1 {
		t.Fatalf("%d replicas after %d scale-ups and %d scale-downs; want 1, 1, 1", st.Replicas, st.ScaleUps, st.ScaleDowns)
	}
	serveAll("after the scale-down")
}
