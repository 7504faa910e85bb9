package fpsa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"fpsa/internal/netlist"
)

// deploymentPin is everything a compiled, placed and configured
// deployment reports through the public API, floats as bit patterns.
type deploymentPin struct {
	// stats carries MeanHops and WirelengthCost as zero; their bits are
	// hopBits and costBits.
	stats             PRStats
	hopBits, costBits uint64
	bits              BitstreamInfo
	pes, smbs, clbs   int
	areaBits          uint64
	// perfBits is Performance() latency and energy, then
	// PerformanceWithHops(round(MeanHops)) latency and energy.
	perfBits [4]uint64
	chips    int
	shards   int // len(Shards())
}

func (p deploymentPin) String() string {
	s := p.stats
	return fmt.Sprintf("deploymentPin{PRStats{ChipSide: %d, Converged: %t, Iterations: %d, MaxHops: %d, ChannelsNeeded: %d, PlacementMoves: %d, Restarts: %d, FromCache: %t, Chips: %d}, %#x, %#x, BitstreamInfo{%d, %d, %d, %d}, %d, %d, %d, %#x, [4]uint64{%#x, %#x, %#x, %#x}, %d, %d}",
		s.ChipSide, s.Converged, s.Iterations, s.MaxHops, s.ChannelsNeeded, s.PlacementMoves, s.Restarts, s.FromCache, s.Chips,
		p.hopBits, p.costBits, p.bits.ProgrammedCells, p.bits.SBCells, p.bits.CBCells, p.bits.TrackOccupancy,
		p.pes, p.smbs, p.clbs, p.areaBits, p.perfBits[0], p.perfBits[1], p.perfBits[2], p.perfBits[3], p.chips, p.shards)
}

// pinDeployment places, routes and configures d and reads every public
// report off it.
func pinDeployment(t *testing.T, d *Deployment) deploymentPin {
	t.Helper()
	ctx := context.Background()
	if _, err := d.Bitstream(ctx); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("Bitstream before PlaceAndRoute: %v, want ErrNotPlaced", err)
	}
	stats, err := d.PlaceAndRoute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := deploymentPin{
		hopBits:  math.Float64bits(stats.MeanHops),
		costBits: math.Float64bits(stats.WirelengthCost),
		areaBits: math.Float64bits(d.AreaMM2()),
		chips:    d.Chips(),
		shards:   len(d.Shards()),
	}
	hops := int(math.Round(stats.MeanHops))
	stats.MeanHops, stats.WirelengthCost = 0, 0
	p.stats = stats
	if p.bits, err = d.Bitstream(ctx); err != nil {
		t.Fatal(err)
	}
	p.pes, p.smbs, p.clbs = d.Blocks()
	for i, h := range []int{0, hops} {
		perf, err := d.PerformanceWithHops(h)
		if err != nil {
			t.Fatal(err)
		}
		p.perfBits[2*i], p.perfBits[2*i+1] = math.Float64bits(perf.LatencyUS), math.Float64bits(perf.EnergyUJ)
	}
	if byDefault, err := d.Performance(); err != nil || math.Float64bits(byDefault.LatencyUS) != p.perfBits[0] {
		t.Fatalf("Performance() = %+v, %v; differs from PerformanceWithHops(0)", byDefault, err)
	}
	return p
}

// TestOneShardDeploymentPinned pins what a deployment reports — every
// PRStats and BitstreamInfo field, the block inventory, area, modeled
// latency and energy, and the cache traffic of a redeploy — for two
// single-chip designs and one two-chip design. The values were recorded
// at the last commit where a single-chip deployment had a place-and-route
// path of its own (PR 19's parent, 0091fad); a single-chip deployment is
// now the one-shard case of the sharded path and must report exactly what
// the dedicated path did. Never re-record them to make a change pass.
func TestOneShardDeploymentPinned(t *testing.T) {
	cases := []struct {
		name, model string
		opts        []Option
		want        deploymentPin
	}{
		{"LeNet@4 seeds2", "LeNet", []Option{WithDuplication(4), WithPlacementSeeds(2)},
			deploymentPin{PRStats{ChipSide: 9, Converged: true, Iterations: 1, MaxHops: 9, ChannelsNeeded: 1296, PlacementMoves: 290521, Restarts: 2, FromCache: false, Chips: 1}, 0x400c56c797dd49c3, 0x40c3ea0000000000, BitstreamInfo{30270, 12194, 18076, 1296}, 34, 21, 6, 0x3fecc980ec3d6f3b, [4]uint64{0x405891c158fb43d9, 0x3fd73277f4da0720, 0x4050612b90a78290, 0x3fd73277f4da0720}, 1, 0}},
		{"MLP-500-100", "MLP-500-100", nil,
			deploymentPin{PRStats{ChipSide: 5, Converged: true, Iterations: 1, MaxHops: 6, ChannelsNeeded: 1836, PlacementMoves: 46970, Restarts: 1, FromCache: false, Chips: 1}, 0x400b08d3dcb08d3e, 0x40bd000000000000, BitstreamInfo{21690, 9024, 12666, 1836}, 11, 0, 2, 0x3fd04abed36d836e, [4]uint64{0x3fe53d0bfa0945fa, 0x3f4578d85ca2ee2c, 0x3fd53d0bfa0945fa, 0x3f4578d85ca2ee2c}, 1, 0}},
		{"MLP-500-100 on 2 chips", "MLP-500-100", []Option{WithChips(2), WithChipCapacity(8)},
			deploymentPin{PRStats{ChipSide: 4, Converged: true, Iterations: 2, MaxHops: 6, ChannelsNeeded: 1346, PlacementMoves: 39988, Restarts: 1, FromCache: false, Chips: 2}, 0x4009642c8590b216, 0x40af940000000000, BitstreamInfo{13098, 5040, 8058, 1346}, 11, 0, 2, 0x3fd04abed36d836e, [4]uint64{0x3ff0ec58eeae9ee4, 0x3f4578d85ca2ee2c, 0x3fe9b1055b899392, 0x3f4578d85ca2ee2c}, 2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			m, err := LoadBenchmark(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCompileCache(0)
			opts := append([]Option{WithSeed(7)}, tc.opts...)
			cached := append([]Option{WithCache(cache)}, opts...)
			compile := func(opts []Option) *Deployment {
				d, err := Compile(ctx, m, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			got := pinDeployment(t, compile(cached))
			if got != tc.want {
				t.Errorf("deployment moved:\n got %v\nwant %v", got, tc.want)
			}
			// A redeploy through the same cache hits once per chip and
			// reports the same deployment; an uncached compile recomputes it.
			warm := pinDeployment(t, compile(cached))
			want := got
			want.stats.FromCache = true
			if warm != want {
				t.Errorf("cached redeploy differs:\n got %v\nwant %v", warm, want)
			}
			if hits, misses := cache.Counters(); hits != int64(got.chips) || misses != int64(got.chips) {
				t.Errorf("cache hits=%d misses=%d, want %d/%d (one entry per chip)", hits, misses, got.chips, got.chips)
			}
			if cold := pinDeployment(t, compile(opts)); cold != got {
				t.Errorf("uncached compile differs:\n got %v\nwant %v", cold, got)
			}
		})
	}
}

// TestDeploymentConcurrentPlaceAndRoute: one Deployment may be placed,
// routed and configured from several goroutines at once — Fleet.AddModel
// and Swap do exactly that when a deployment is registered in two fleets
// or under two names. Every caller must see the serial run's stats and
// bitstream, on one chip and on two, with and without a compile cache,
// and every caller must have placed and configured the same netlist: each
// chip's is built once, by whichever caller needs it first. Run under
// -race this is the guard on the per-shard netlist and artifact slots.
func TestDeploymentConcurrentPlaceAndRoute(t *testing.T) {
	ctx := context.Background()
	const callers = 4
	for _, chips := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("chips%d/cached=%t", chips, cached), func(t *testing.T) {
				compile := func() *Deployment {
					opts := []Option{WithChips(chips), WithSeed(5)}
					if cached {
						opts = append(opts, WithCache(NewCompileCache(0)))
					}
					d, err := Compile(ctx, cacheTestModel(t, 24), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if d.Chips() != chips {
						t.Fatalf("compiled onto %d chips, want %d", d.Chips(), chips)
					}
					return d
				}
				serial := compile()
				wantStats, err := serial.PlaceAndRoute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantBits, err := serial.Bitstream(ctx)
				if err != nil {
					t.Fatal(err)
				}
				d := compile()
				if holdsNetlist(d) {
					t.Fatal("Compile built a netlist")
				}
				var netlists [callers][]*netlist.Netlist // caller → chip → the netlist it saw
				var wg sync.WaitGroup
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						stats, err := d.PlaceAndRoute(ctx)
						if err != nil {
							t.Errorf("caller %d: PlaceAndRoute: %v", c, err)
							return
						}
						// Who computed and who found the artifacts is the
						// one thing that may differ between callers.
						stats.FromCache = wantStats.FromCache
						if stats != wantStats {
							t.Errorf("caller %d: stats %+v, serial run %+v", c, stats, wantStats)
						}
						bits, err := d.Bitstream(ctx)
						if err != nil {
							t.Errorf("caller %d: Bitstream: %v", c, err)
							return
						}
						if bits != wantBits {
							t.Errorf("caller %d: bitstream %+v, serial run %+v", c, bits, wantBits)
						}
						for _, sh := range d.shards {
							nl, err := d.shardNetlist(sh)
							if err != nil {
								t.Errorf("caller %d: netlist: %v", c, err)
							}
							netlists[c] = append(netlists[c], nl)
						}
					}(c)
				}
				wg.Wait()
				for c := range netlists {
					for k, nl := range netlists[c] {
						if nl == nil || nl != netlists[0][k] {
							t.Errorf("caller %d chip %d: netlist %p, caller 0 saw %p — built more than once", c, k, nl, netlists[0][k])
						}
					}
				}
			})
		}
		t.Run(fmt.Sprintf("chips%d/two fleets", chips), func(t *testing.T) {
			d, _, test := trainedDeployment(t, WithChips(chips))
			fleets := make([]*Fleet, 2)
			for i := range fleets {
				f, err := NewFleet(WithFleetChips(8))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				fleets[i] = f
			}
			var wg sync.WaitGroup
			for i, f := range fleets {
				wg.Add(1)
				go func(i int, f *Fleet) {
					defer wg.Done()
					if err := f.AddModel(ctx, "m", d, WithModelEngine(WithMode(ModeReference))); err != nil {
						t.Errorf("fleet %d: AddModel: %v", i, err)
					}
				}(i, f)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			a, _, err := fleets[0].Outputs(ctx, "m", "", test.X[0])
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := fleets[1].Outputs(ctx, "m", "", test.X[0])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("two fleets over one deployment disagree: %v vs %v", a, b)
			}
		})
	}
}
