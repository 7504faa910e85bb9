package fpsa

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fpsa/internal/compilecache"
)

// TestCompileCancelled: an already-cancelled context aborts Compile
// before any phase runs.
func TestCompileCancelled(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(ctx, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compile: %v, want context.Canceled", err)
	}
}

// TestPlaceAndRouteCancelled: a context cancelled mid-run aborts the
// multi-seed annealing portfolio at a checkpoint and returns ctx.Err(),
// leaking no goroutines.
func TestPlaceAndRouteCancelled(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m,
		WithDuplication(4), WithSeed(3), WithPlacementSeeds(4), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	// LeNet dup 4 anneals for seconds; a 1 ms deadline always expires
	// mid-portfolio, well before the first segment completes.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = d.PlaceAndRoute(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded PlaceAndRoute: %v, want context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, before)
}

// TestShardedPlaceAndRouteCancelled: cancellation propagates into every
// concurrent per-chip place & route of a sharded compile.
func TestShardedPlaceAndRouteCancelled(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m, WithChips(2), WithPlacementSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chips() != 2 {
		t.Fatalf("deployment chips = %d, want 2", d.Chips())
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.PlaceAndRoute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sharded PlaceAndRoute: %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
	// A cancelled run cached nothing and left no state behind: the same
	// deployment completes normally afterwards.
	stats, err := d.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("post-cancellation rerun did not converge: %+v", stats)
	}
}

// TestBitstreamCancelled: the configuration generator honors ctx.
func TestBitstreamCancelled(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlaceAndRoute(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Bitstream(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Bitstream: %v, want context.Canceled", err)
	}
}

// TestUncancelledContextBitIdentical: running under a live (never
// cancelled) context changes nothing — placement, routing and the
// generated configuration are bit-identical to a Background run.
func TestUncancelledContextBitIdentical(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	compileOnce := func(ctx context.Context) (PRStats, BitstreamInfo) {
		t.Helper()
		d, err := Compile(ctx, m, WithSeed(3), WithPlacementSeeds(2), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.PlaceAndRoute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		info, err := d.Bitstream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return stats, info
	}
	baseStats, baseInfo := compileOnce(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	liveStats, liveInfo := compileOnce(ctx)
	if !reflect.DeepEqual(baseStats, liveStats) {
		t.Fatalf("stats differ under live context:\nbackground %+v\nlive       %+v", baseStats, liveStats)
	}
	if baseInfo != liveInfo {
		t.Fatalf("bitstream differs under live context: background %+v, live %+v", baseInfo, liveInfo)
	}
}

// TestCacheJoinerRetriesOthersCancellation: under the compile cache's
// singleflight, a caller that joined a computation cancelled by *its
// owner's* context must not inherit that failure — with its own context
// live it retries and computes. (Simulated directly: the first compute
// fails with a foreign context error, the retry succeeds.)
func TestCacheJoinerRetriesOthersCancellation(t *testing.T) {
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache(0)
	d, err := Compile(context.Background(), m, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	art, _, err := getOrComputeCtx(context.Background(), cache, d.cacheKey(0), func() (*compilecache.Artifacts, error) {
		calls++
		if calls == 1 {
			return nil, context.DeadlineExceeded // another caller's expiry
		}
		nl, err := d.shardNetlist(d.shards[0])
		if err != nil {
			return nil, err
		}
		return d.placeAndRoute(context.Background(), nl, d.cfg.Tracks)
	})
	if err != nil || art == nil {
		t.Fatalf("joiner inherited a foreign cancellation: %v", err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want a retry (2)", calls)
	}
	// Our own cancellation is still ours to keep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache2 := NewCompileCache(0)
	d2, err := Compile(context.Background(), m, WithCache(cache2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.PlaceAndRoute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("own cancellation: %v, want context.Canceled", err)
	}
}

// waitForGoroutines retries until the goroutine count returns to the
// pre-run level (small slack for runtime background goroutines) —
// cancellation must not strand portfolio or router workers.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
