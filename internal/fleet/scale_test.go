package fleet

import (
	"context"
	"testing"
	"time"
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
