package fpsa

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"fpsa/internal/bitstream"
)

// cellDigest is an FNV-1a hash of every programmed cell, every field, in
// table order: switch-box cells first, then connection-box cells.
func cellDigest(cfg *bitstream.Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	for _, c := range cfg.SBCells {
		put(c.NodeA, c.TrackA, c.NodeB, c.TrackB, c.Net, c.Signal)
	}
	for _, c := range cfg.CBCells {
		src := 0
		if c.Source {
			src = 1
		}
		put(c.Block, c.Node, c.Track, c.Net, c.Signal, src)
	}
	return h.Sum64()
}

// TestBitstreamCellsPinned pins bitstream.Generate's output — which cells
// are programmed and the order they sit in the tables, per chip — on the
// designs the compile benchmark routes. The values were recorded at the
// last commit where Generate grew its tables by append and kept a track
// map per net (PR 20's parent, a6601c2); the exact-size, scratch-reusing
// Generate must reproduce them. Never re-record them to make a change to
// Generate pass: see docs/INVARIANTS.md "Bitstream cell order".
func TestBitstreamCellsPinned(t *testing.T) {
	type chipPin struct {
		sb, cb, occupancy int
		digest            uint64
	}
	cases := []struct {
		name, model string
		opts        []Option
		want        []chipPin // one per chip
	}{
		{"LeNet@4 seed1", "LeNet", []Option{WithDuplication(4), WithSeed(1)},
			[]chipPin{{12732, 18076, 1996, 0x2076d1f981d554bd}}},
		{"LeNet@4 seed2", "LeNet", []Option{WithDuplication(4), WithSeed(2)},
			[]chipPin{{12380, 18076, 1506, 0x246590099c29cbb1}}},
		{"CIFAR-VGG17@1", "CIFAR-VGG17", []Option{WithSeed(1)},
			[]chipPin{{97324, 109832, 2044, 0xebb2e0f2c122bfb9}}},
		{"MLP-500-100 on 2 chips", "MLP-500-100", []Option{WithChips(2), WithChipCapacity(8), WithSeed(7)},
			[]chipPin{{6, 18, 6, 0xf2845230eac2e304}, {5034, 8040, 1346, 0x404edc154d39408}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			m, err := LoadBenchmark(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Compile(ctx, m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.PlaceAndRoute(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Bitstream(ctx); err != nil {
				t.Fatal(err)
			}
			var got []chipPin
			for _, sh := range d.shards {
				cfg, err := sh.artifacts.Bitstream(func() (*bitstream.Config, error) {
					return nil, fmt.Errorf("Bitstream left no memoized configuration")
				})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, chipPin{len(cfg.SBCells), len(cfg.CBCells), cfg.TrackOccupancy(), cellDigest(cfg)})
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("configuration moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
