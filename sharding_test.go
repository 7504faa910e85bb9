package fpsa

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// shardTestModel builds an FC model big enough to split across chips.
func shardTestModel(t *testing.T) Model {
	t.Helper()
	m, err := LoadBenchmark("MLP-500-100")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileExceedsCapacityErrors: a model too big for one chip is a
// hard error at MaxChips 1 — and the error names the fix.
func TestCompileExceedsCapacityErrors(t *testing.T) {
	m := shardTestModel(t)
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	pes, _, _ := d.Blocks()
	if pes < 2 {
		t.Fatalf("test model occupies %d PEs, cannot exercise capacity", pes)
	}
	_, err = Compile(context.Background(), m, WithDuplication(1), WithChipCapacity(pes-1))
	if err == nil {
		t.Fatal("over-capacity compile succeeded on one chip")
	}
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("error %q is not ErrCapacity", err)
	}
	if !strings.Contains(err.Error(), "WithChips") {
		t.Fatalf("error %q does not suggest WithChips", err)
	}
}

// TestCompileSharded: with MaxChips ≥ 2 the over-capacity model
// compiles; shards partition the groups, respect capacity, and preserve
// the PE inventory.
func TestCompileSharded(t *testing.T) {
	m := shardTestModel(t)
	single, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	wantPEs, _, _ := single.Blocks()
	if single.Chips() != 1 || single.Shards() != nil {
		t.Fatalf("single-chip deployment reports %d chips, %v shards", single.Chips(), single.Shards())
	}

	capacity := wantPEs - 1
	d, err := Compile(context.Background(), m, WithDuplication(1), WithChipCapacity(capacity), WithChips(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chips() < 2 {
		t.Fatalf("sharded deployment has %d chips, want ≥ 2", d.Chips())
	}
	shards := d.Shards()
	if len(shards) != d.Chips() {
		t.Fatalf("Shards() returned %d entries for %d chips", len(shards), d.Chips())
	}
	totalPEs, totalGroups := 0, 0
	for _, sh := range shards {
		if sh.PEs > capacity {
			t.Errorf("chip %d holds %d PEs, capacity %d", sh.Chip, sh.PEs, capacity)
		}
		totalPEs += sh.PEs
		totalGroups += sh.Groups
	}
	if totalPEs != wantPEs {
		t.Errorf("sharded PEs sum to %d, single-chip deployment has %d", totalPEs, wantPEs)
	}
	groups, _ := d.CoreOps()
	if totalGroups != groups {
		t.Errorf("sharded groups sum to %d, graph has %d", totalGroups, groups)
	}
	for _, sh := range shards[1:] {
		if sh.InSignals <= 0 {
			t.Errorf("chip %d reports no inbound link traffic", sh.Chip)
		}
	}
	pes, smbs, clbs := d.Blocks()
	if pes != wantPEs || smbs < 0 || clbs <= 0 {
		t.Errorf("Blocks() = %d/%d/%d", pes, smbs, clbs)
	}
	if d.AreaMM2() <= 0 {
		t.Errorf("AreaMM2 = %g", d.AreaMM2())
	}
}

// TestCompileShardedExactChips: without a capacity bound, MaxChips asks
// for exactly that many chips.
func TestCompileShardedExactChips(t *testing.T) {
	m := shardTestModel(t)
	d, err := Compile(context.Background(), m, WithDuplication(1), WithChips(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chips() != 3 {
		t.Fatalf("Chips() = %d, want 3", d.Chips())
	}
}

// TestCompileInfeasibleSharding: a single group heavier than the
// capacity cannot shard at any chip count.
func TestCompileInfeasibleSharding(t *testing.T) {
	m := shardTestModel(t)
	if _, err := Compile(context.Background(), m, WithDuplication(1), WithChipCapacity(1), WithChips(2)); err == nil {
		t.Fatal("infeasible sharding accepted (capacity 1 cannot hold the model at 2 chips)")
	}
}

// TestShardedPlaceAndRoute: every chip places, routes and converges; the
// aggregate stats report the chip count; and the bitstream verifies per
// chip.
func TestShardedPlaceAndRoute(t *testing.T) {
	m := shardTestModel(t)
	d, err := Compile(context.Background(), m, WithDuplication(1), WithChips(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chips != 2 {
		t.Fatalf("PRStats.Chips = %d, want 2", stats.Chips)
	}
	if !stats.Converged {
		t.Fatalf("sharded routing did not converge: %+v", stats)
	}
	if stats.ChipSide <= 0 || stats.MeanHops <= 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	if !strings.Contains(stats.String(), "2 chips") {
		t.Errorf("stats string %q missing chip count", stats)
	}
	info, err := d.Bitstream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.ProgrammedCells <= 0 || info.TrackOccupancy <= 0 {
		t.Fatalf("implausible bitstream info: %+v", info)
	}
}

// TestShardedPlaceAndRouteCached: each shard is its own cache entry; a
// redeploy hits every one and reports FromCache.
func TestShardedPlaceAndRouteCached(t *testing.T) {
	m := shardTestModel(t)
	cache := NewCompileCache(0)
	opts := []Option{WithDuplication(1), WithChips(2), WithSeed(3), WithCache(cache)}
	d, err := Compile(context.Background(), m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := d.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first sharded PlaceAndRoute reported FromCache")
	}
	d2, err := Compile(context.Background(), m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := d2.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("redeploy did not hit the cache for every shard")
	}
	if warm.MeanHops != cold.MeanHops || warm.WirelengthCost != cold.WirelengthCost {
		t.Errorf("cached stats differ: cold %+v, warm %+v", cold, warm)
	}
	hits, misses := cache.Counters()
	if misses != 2 || hits != 2 {
		t.Errorf("cache counters hits=%d misses=%d, want 2/2 (one per shard)", hits, misses)
	}
}

// TestShardedPerformance: the perf model charges the inter-chip link —
// chips reported, link time > 0, latency above the single-chip figure.
func TestShardedPerformance(t *testing.T) {
	m := shardTestModel(t)
	single, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := single.Performance()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Chips != 1 || sp.LinkNSPerSample != 0 {
		t.Fatalf("single-chip perf reports %d chips, link %g", sp.Chips, sp.LinkNSPerSample)
	}
	d, err := Compile(context.Background(), m, WithDuplication(1), WithChips(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Performance()
	if err != nil {
		t.Fatal(err)
	}
	if p.Chips != 2 {
		t.Fatalf("sharded perf reports %d chips", p.Chips)
	}
	if p.LinkNSPerSample <= 0 {
		t.Fatalf("sharded perf charges no link time: %+v", p)
	}
	if p.LatencyUS <= sp.LatencyUS {
		t.Errorf("sharded latency %g µs not above single-chip %g µs", p.LatencyUS, sp.LatencyUS)
	}
	if !strings.Contains(p.String(), "2 chips") {
		t.Errorf("perf string %q missing chip count", p)
	}
}

// TestShardedEngineServes is the public serving path of the acceptance
// criterion: a network compiled across two chips and served by three
// executors returns the same classes as the single-chip engine.
func TestShardedEngineServes(t *testing.T) {
	ds := SyntheticDataset(5, 300, 12, 3, 0.08)
	train, test := ds.Split(0.7)
	net, err := TrainMLP(5, []int{12, 10, 8, 3}, train, 15)
	if err != nil {
		t.Fatal(err)
	}
	d := compileMLP(t, net)
	single, err := d.NewEngine(context.Background(), WithWorkers(1), WithMaxBatch(4), WithMode(ModeSpiking))
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.ClassifyBatch(context.Background(), test.X)
	if err != nil {
		t.Fatal(err)
	}
	single.Close()

	sharded, err := compileMLP(t, net, WithChips(2)).NewEngine(context.Background(), WithWorkers(3), WithMaxBatch(4), WithMode(ModeSpiking))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.Chips() != 2 {
		t.Fatalf("Engine.Chips() = %d, want 2", sharded.Chips())
	}
	got, err := sharded.ClassifyBatch(context.Background(), test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: sharded class %d, single-chip %d", i, got[i], want[i])
		}
	}
	if s := sharded.Stats(); s.Chips != 2 {
		t.Errorf("EngineStats.Chips = %d, want 2", s.Chips)
	}
}

// TestReshardingReusesUnchangedShards: shard cache keys address the
// shard's group range, not the chip count, so re-partitioning at a
// different MaxChips re-uses every chip whose content is unchanged.
func TestReshardingReusesUnchangedShards(t *testing.T) {
	m := shardTestModel(t)
	cache := NewCompileCache(0)
	d2, err := Compile(context.Background(), m, WithDuplication(1), WithChips(2), WithSeed(3), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.PlaceAndRoute(context.Background()); err != nil {
		t.Fatal(err)
	}
	ranges2 := make(map[[2]int]bool)
	for _, sh := range d2.shards {
		ranges2[[2]int{sh.lo, sh.hi}] = true
	}
	d3, err := Compile(context.Background(), m, WithDuplication(1), WithChips(3), WithSeed(3), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, sh := range d3.shards {
		if ranges2[[2]int{sh.lo, sh.hi}] {
			shared++
		}
	}
	if _, err := d3.PlaceAndRoute(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Counters()
	wantMisses := int64(len(d2.shards) + len(d3.shards) - shared)
	if misses != wantMisses || hits != int64(shared) {
		t.Errorf("cache counters hits=%d misses=%d, want hits=%d misses=%d (%d shared group ranges)",
			hits, misses, shared, wantMisses, shared)
	}
	for i, sh3 := range d3.shards {
		for j, sh2 := range d2.shards {
			if sh3.lo == sh2.lo && sh3.hi == sh2.hi && d3.cacheKey(i) != d2.cacheKey(j) {
				t.Errorf("shards with identical group range %d:%d have different cache keys", sh3.lo, sh3.hi)
			}
		}
	}
}
