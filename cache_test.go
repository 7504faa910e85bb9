package fpsa

import (
	"context"
	"sync"
	"testing"
)

// cacheTestModel builds a small MLP whose hidden width parameterizes the
// weight matrices — changing it must change the content address.
func cacheTestModel(t *testing.T, hidden int) Model {
	t.Helper()
	m, err := NewModelBuilder("cache-mlp", 16, 1, 1).FC(hidden).ReLU().FC(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileCacheHitSkipsPlaceAndRoute(t *testing.T) {
	cache := NewCompileCache(0)
	ctx := context.Background()
	opts := []Option{WithDuplication(1), WithSeed(5), WithPlacementSeeds(2), WithCache(cache)}
	m := cacheTestModel(t, 24)

	d1, err := Compile(ctx, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d1.PlaceAndRoute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.FromCache {
		t.Fatal("first PlaceAndRoute claims a cache hit")
	}
	b1, err := d1.Bitstream(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A fresh Compile of the same model and options must hit.
	d2, err := Compile(ctx, cacheTestModel(t, 24), opts...)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !s2.FromCache {
		t.Fatal("identical deployment missed the cache")
	}
	// Pointer identity of the artifacts proves placement and routing were
	// skipped, not just equal.
	if d2.shards[0].artifacts != d1.shards[0].artifacts {
		t.Error("cache hit recomputed artifacts")
	}
	s2.FromCache = false
	if s1 != s2 {
		t.Errorf("cached stats %+v differ from computed %+v", s2, s1)
	}
	// The memoized bitstream must be byte-identical too.
	b2, err := d2.Bitstream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("cached bitstream %+v differs from generated %+v", b2, b1)
	}
	if hits, misses := cache.Counters(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}

	// And the cached artifacts must equal an uncached recompute
	// byte-for-byte (the determinism the cache's correctness rests on).
	d3, err := Compile(ctx, cacheTestModel(t, 24), WithDuplication(1), WithSeed(5), WithPlacementSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := d3.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("uncached recompute %+v differs from cached run %+v", s3, s1)
	}
	uncached, cached := d3.shards[0].artifacts.Placement.Pos, d1.shards[0].artifacts.Placement.Pos
	for b := range uncached {
		if uncached[b] != cached[b] {
			t.Fatalf("block %d placed at %v uncached, %v cached", b, uncached[b], cached[b])
		}
	}
}

func TestCompileCacheInvalidation(t *testing.T) {
	cache := NewCompileCache(0)
	// Options apply in order, so each variant appends its override to base.
	base := []Option{WithDuplication(1), WithSeed(5), WithCache(cache)}
	warm := func(m Model, extra ...Option) PRStats {
		t.Helper()
		d, err := Compile(context.Background(), m, append(base[:len(base):len(base)], extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.PlaceAndRoute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := warm(cacheTestModel(t, 24)); s.FromCache {
		t.Fatal("cold cache hit")
	}

	// Changed weights (a wider hidden layer) must miss.
	if s := warm(cacheTestModel(t, 32)); s.FromCache {
		t.Error("model with different weights hit the cache")
	}
	// Changed channel width must miss.
	if s := warm(cacheTestModel(t, 24), WithTracks(1024)); s.FromCache {
		t.Error("different Tracks hit the cache")
	}
	// Changed portfolio size must miss (it changes the winning placement).
	if s := warm(cacheTestModel(t, 24), WithPlacementSeeds(3)); s.FromCache {
		t.Error("different PlacementSeeds hit the cache")
	}
	// Parallelism is excluded from the key by design.
	if s := warm(cacheTestModel(t, 24), WithParallelism(4)); !s.FromCache {
		t.Error("Parallelism changed the content address")
	}
	// The original key must still be cached.
	if s := warm(cacheTestModel(t, 24)); !s.FromCache {
		t.Error("original deployment evicted or invalidated")
	}
}

func TestCompileCacheConcurrent(t *testing.T) {
	// Many goroutines deploy the same model through one cache: exactly
	// one must compute, and everyone must observe identical artifacts.
	// Run under -race in CI.
	cache := NewCompileCache(0)
	opts := []Option{WithDuplication(1), WithSeed(7), WithPlacementSeeds(2), WithParallelism(2), WithCache(cache)}
	const goroutines = 12
	// Build the (equal but distinct) models on the test goroutine:
	// cacheTestModel may t.Fatal, which must not run inside a spawned
	// goroutine.
	models := make([]Model, goroutines)
	for i := range models {
		models[i] = cacheTestModel(t, 24)
	}
	stats := make([]PRStats, goroutines)
	infos := make([]BitstreamInfo, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Compile(context.Background(), models[i], opts...)
			if err != nil {
				t.Error(err)
				return
			}
			s, err := d.PlaceAndRoute(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			info, err := d.Bitstream(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			stats[i], infos[i] = s, info
		}(i)
	}
	wg.Wait()
	if _, misses := cache.Counters(); misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", misses)
	}
	for i := 1; i < goroutines; i++ {
		a, b := stats[i], stats[0]
		a.FromCache, b.FromCache = false, false
		if a != b {
			t.Fatalf("goroutine %d stats %+v differ from %+v", i, stats[i], stats[0])
		}
		if infos[i] != infos[0] {
			t.Fatalf("goroutine %d bitstream %+v differs from %+v", i, infos[i], infos[0])
		}
	}
}
