package experiments

import (
	"context"
	"testing"
)

func TestAblationTransmissionTradeoffs(t *testing.T) {
	r, err := AblationTransmission()
	if err != nil {
		t.Fatal(err)
	}
	// The §7.1 claims: trains give 2ⁿ× NBD fill advantage and n× buffer
	// savings, at 2ⁿ/n× the wire traffic.
	if r.CountFillCycles != 64 || r.TrainFillCycles != 1 {
		t.Errorf("fill cycles = %d vs %d, want 64 vs 1", r.CountFillCycles, r.TrainFillCycles)
	}
	if r.CountBufferBits != 6 || r.TrainBufferBits != 1 {
		t.Errorf("buffer bits = %d vs %d, want 6 vs 1", r.CountBufferBits, r.TrainBufferBits)
	}
	if r.TrainWireBits/r.CountWireBits < 10 {
		t.Errorf("traffic ratio = %d/%d, want ≥10x", r.TrainWireBits, r.CountWireBits)
	}
	// Honest finding: at VGG16's 64× TDM configuration the count mode's
	// shorter stages win end-to-end latency — the train design's payoff
	// is the NBD fill on shallow/bufferless pipelines plus the removal
	// of per-PE encoder/decoder circuits (§4.2).
	if r.TrainLatencyUS <= 0 || r.CountLatencyUS <= 0 {
		t.Fatal("latencies not positive")
	}
}

func TestAblationChannelWidth(t *testing.T) {
	r, err := AblationChannelWidth(context.Background(), []int{2048, 1024, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !r.Points[0].Converged {
		t.Error("2048 tracks did not route")
	}
	if r.Points[2].Converged {
		t.Error("256 tracks routed a netlist with 256-signal buses and shared corridors")
	}
	if r.MinWidth == 0 {
		t.Error("no feasible width found")
	}
	// Routing area must shrink with narrower channels.
	if r.Points[0].RoutingAreaUM <= r.Points[1].RoutingAreaUM {
		t.Error("routing area not monotone in channel width")
	}
}
