package fabric

import (
	"testing"

	"fpsa/internal/device"
)

func TestSizeFor(t *testing.T) {
	c, err := SizeFor(100, 0, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sites() < 100 {
		t.Errorf("Sites = %d, want ≥100", c.Sites())
	}
	if c.Tracks != DefaultTracks {
		t.Errorf("Tracks = %d, want default %d", c.Tracks, DefaultTracks)
	}
	if _, err := SizeFor(0, 0, device.Params45nm); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestSiteIndexRoundTrip(t *testing.T) {
	c := Chip{W: 7, H: 5, Tracks: 4, Params: device.Params45nm}
	for i := 0; i < c.Sites(); i++ {
		s := c.SiteAt(i)
		if !c.Valid(s) {
			t.Fatalf("SiteAt(%d) = %v invalid", i, s)
		}
		if c.Index(s) != i {
			t.Fatalf("Index(SiteAt(%d)) = %d", i, c.Index(s))
		}
	}
	if c.Valid(Site{X: 7, Y: 0}) || c.Valid(Site{X: -1, Y: 0}) {
		t.Error("out-of-range site reported valid")
	}
}

func TestRoutingStackedBelowBlockArea(t *testing.T) {
	// §6.1: "the routing architecture is stacked over function blocks;
	// the area of the former is less" — at the evaluated channel width,
	// per-site routing area must be below the smallest block.
	c := Chip{W: 10, H: 10, Tracks: DefaultTracks, Params: device.Params45nm}
	blockArea := float64(c.Sites()) * device.Params45nm.SMB.AreaUM2 // worst case: all-SMB chip
	if r := c.RoutingAreaUM2(); r > blockArea {
		t.Errorf("routing area %v exceeds all-SMB block area %v", r, blockArea)
	}
}
