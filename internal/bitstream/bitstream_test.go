package bitstream

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/synth"
)

// routedFixture builds, places and routes a small random netlist.
func routedFixture(t *testing.T, seed int64, blocks, nets, maxSignals int) (*netlist.Netlist, *place.Placement, *route.Result, fabric.Chip) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := &netlist.Netlist{Name: "fixture"}
	for i := 0; i < blocks; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	for i := 0; i < nets; i++ {
		src := rng.Intn(blocks)
		sink := rng.Intn(blocks)
		for sink == src {
			sink = rng.Intn(blocks)
		}
		sinks := []int{sink}
		if rng.Intn(3) == 0 {
			extra := rng.Intn(blocks)
			if extra != src && extra != sink {
				sinks = append(sinks, extra)
			}
		}
		nl.AddNet(src, sinks, 1+rng.Intn(maxSignals))
	}
	chip, err := fabric.SizeFor(blocks, 256, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := place.Anneal(context.Background(), nl, chip, rng, place.Options{MovesPerTemp: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(context.Background(), nl, pl, chip, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fixture routing did not converge")
	}
	return nl, pl, res, chip
}

func TestGenerateAndVerify(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 21, 24, 30, 16)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CellCount() == 0 {
		t.Fatal("empty configuration")
	}
	if err := cfg.Verify(nl); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if occ := cfg.TrackOccupancy(); occ > chip.Tracks {
		t.Errorf("occupancy %d exceeds %d tracks", occ, chip.Tracks)
	}
}

func TestGenerateRejectsUnconverged(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 22, 8, 6, 4)
	res.Converged = false
	if _, err := Generate(nl, pl, res, chip); err == nil {
		t.Error("unconverged routing accepted")
	}
}

func TestVerifyDetectsCorruptedSwitch(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 23, 24, 30, 8)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SBCells) == 0 {
		t.Skip("no SB hops in this fixture")
	}
	// Clearing any switch cell must break a signal path (fault
	// injection: a stuck-high-resistance ReRAM switch).
	cfg.CorruptSBCell(len(cfg.SBCells) / 2)
	err = cfg.Verify(nl)
	if err == nil {
		t.Fatal("corrupted configuration verified clean")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Logf("corruption surfaced as: %v", err)
	}
}

func TestVerifyDetectsForeignTrackSwitch(t *testing.T) {
	// A misprogrammed SB cell reaching into an unowned (or foreign)
	// track must fail verification — the electrical-shorts class of
	// configuration bugs.
	nl, pl, res, chip := routedFixture(t, 24, 16, 16, 4)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SBCells) == 0 {
		t.Skip("no SB cells in fixture")
	}
	cfg.SBCells[0].TrackA = cfg.Chip.Tracks - 1 // last track: free in this small fixture
	if err := cfg.Verify(nl); err == nil {
		t.Error("foreign-track SB cell verified clean")
	}
}

// TestVerifyDetectsDoubleBookedTrack: a cell moved onto a track another
// net already owns — one track carrying two nets, a short — must fail
// verification.
func TestVerifyDetectsDoubleBookedTrack(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 27, 24, 30, 8)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.SBCells {
		cell := &cfg.SBCells[i]
		for track, owner := range cfg.tracks[cell.NodeA*chip.Tracks : (cell.NodeA+1)*chip.Tracks] {
			if owner != 0 && int(owner)-1 != cell.Net {
				cell.TrackA = track
				if err := cfg.Verify(nl); err == nil {
					t.Error("double-booked track verified clean")
				}
				return
			}
		}
	}
	t.Skip("no channel node shared by two nets in this fixture")
}

// TestGenerateAllocs: Generate allocates its tables and its scratch — a
// handful of slices — however many nets it configures, not a track map per
// net and a pick list per tree node.
func TestGenerateAllocs(t *testing.T) {
	var perRun []float64
	for _, nets := range []int{8, 60} {
		nl, pl, res, chip := routedFixture(t, 28, 24, nets, 8)
		perRun = append(perRun, testing.AllocsPerRun(5, func() {
			if _, err := Generate(nl, pl, res, chip); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if perRun[0] != perRun[1] || perRun[1] > 8 {
		t.Errorf("allocations per Generate: %v for 8 nets, %v for 60; want the same handful", perRun[0], perRun[1])
	}
}

func TestCellCountScalesWithSignals(t *testing.T) {
	nlA, plA, resA, chipA := routedFixture(t, 25, 12, 10, 2)
	cfgA, err := Generate(nlA, plA, resA, chipA)
	if err != nil {
		t.Fatal(err)
	}
	nlB, plB, resB, chipB := routedFixture(t, 25, 12, 10, 32)
	cfgB, err := Generate(nlB, plB, resB, chipB)
	if err != nil {
		t.Fatal(err)
	}
	if cfgB.CellCount() <= cfgA.CellCount() {
		t.Errorf("wider buses did not grow the configuration: %d vs %d", cfgA.CellCount(), cfgB.CellCount())
	}
}

// TestVerifyRejectsOutOfRangeCells: Verify indexes flat per-slot and
// per-net tables, so a cell naming a node, track or net outside them must
// come back as an error, never as an index panic.
func TestVerifyRejectsOutOfRangeCells(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 26, 16, 16, 4)
	nodes := 2 * chip.W * chip.H
	cases := []struct {
		name    string
		corrupt func(c *Config)
	}{
		{"SB node past the fabric", func(c *Config) { c.SBCells[0].NodeA = nodes }},
		{"SB node negative", func(c *Config) { c.SBCells[0].NodeB = -1 }},
		{"SB track past the channel", func(c *Config) { c.SBCells[0].TrackB = c.Chip.Tracks }},
		{"SB track negative", func(c *Config) { c.SBCells[0].TrackA = -1 }},
		{"SB net past the netlist", func(c *Config) { c.SBCells[0].Net = len(nl.Nets) }},
		{"SB net negative", func(c *Config) { c.SBCells[0].Net = -1 }},
		{"CB node past the fabric", func(c *Config) { c.CBCells[0].Node = nodes + 7 }},
		{"CB node negative", func(c *Config) { c.CBCells[0].Node = -3 }},
		{"CB track past the channel", func(c *Config) { c.CBCells[0].Track = c.Chip.Tracks + 1 }},
		{"CB track negative", func(c *Config) { c.CBCells[0].Track = -1 }},
		{"CB net past the netlist", func(c *Config) { c.CBCells[0].Net = len(nl.Nets) + 5 }},
		{"CB net negative", func(c *Config) { c.CBCells[0].Net = -1 }},
		{"chip narrower than the track table", func(c *Config) { c.Chip.Tracks-- }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Generate(nl, pl, res, chip)
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.SBCells) == 0 || len(cfg.CBCells) == 0 {
				t.Skip("fixture has no cells to corrupt")
			}
			if err := cfg.Verify(nl); err != nil {
				t.Fatalf("clean configuration rejected: %v", err)
			}
			tc.corrupt(cfg)
			if err := cfg.Verify(nl); err == nil {
				t.Error("out-of-range cell verified clean")
			}
		})
	}
}

// BenchmarkBitstreamVerify verifies the CIFAR-VGG17 duplication-1
// configuration, the largest design the compile_zoo workload routes.
func BenchmarkBitstreamVerify(b *testing.B) {
	ctx := context.Background()
	co, err := synth.Synthesize(models.CIFARVGG17(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := mapper.Allocate(co, 1)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := mapper.BuildNetlist(co, alloc, device.Params45nm, nil)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := fabric.SizeFor(len(nl.Blocks), 0, device.Params45nm)
	if err != nil {
		b.Fatal(err)
	}
	pl, _, err := place.Portfolio(ctx, nl, chip, 1, place.PortfolioOptions{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := route.Route(ctx, nl, pl, chip, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := cfg.Verify(nl); err != nil {
			b.Fatal(err)
		}
	}
}
