package fpsa

import (
	"fmt"

	"fpsa/internal/shard"
)

// ShardPolicy selects the objective the multi-chip partitioner optimizes
// when WithChips splits a model across chips at compile time. See
// internal/shard for the partitioning algorithm. An engine cuts its own
// stage list and always balances it (outputs are identical under any cut).
type ShardPolicy int

// Sharding policies.
const (
	// ShardAuto is the compiler's natural objective, minimal inter-chip
	// traffic: link wires and transfer energy are the scarce resource.
	ShardAuto ShardPolicy = iota
	// ShardMinCut minimizes the total signal traffic crossing inter-chip
	// links, breaking ties toward balanced loads.
	ShardMinCut
	// ShardBalanced minimizes the heaviest chip's load, breaking ties
	// toward less link traffic.
	ShardBalanced
)

// String names the policy the way the CLIs spell it.
func (p ShardPolicy) String() string {
	switch p {
	case ShardAuto:
		return "auto"
	case ShardMinCut:
		return "mincut"
	case ShardBalanced:
		return "balanced"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseShardPolicy parses the CLI spelling of a policy.
func ParseShardPolicy(name string) (ShardPolicy, error) {
	switch name {
	case "auto", "":
		return ShardAuto, nil
	case "mincut":
		return ShardMinCut, nil
	case "balanced":
		return ShardBalanced, nil
	}
	return 0, fmt.Errorf("%w: unknown shard policy %q (want auto, mincut, or balanced)", ErrInvalidArgument, name)
}

// compilePolicy maps the public policy onto the partitioner's for the
// compile path (Auto = min-cut).
func (p ShardPolicy) compilePolicy() (shard.Policy, error) {
	switch p {
	case ShardAuto, ShardMinCut:
		return shard.PolicyMinCut, nil
	case ShardBalanced:
		return shard.PolicyBalanced, nil
	}
	return 0, fmt.Errorf("%w: unknown shard policy %d", ErrInvalidArgument, int(p))
}

// ShardInfo describes one chip of a sharded deployment.
type ShardInfo struct {
	// Chip is the shard's pipeline position (0-based; signals only ever
	// flow from lower to higher chips).
	Chip int
	// Groups is the number of weight groups mapped onto this chip.
	Groups int
	// PEs, SMBs and CLBs are the chip's function-block inventory.
	PEs, SMBs, CLBs int
	// InSignals is the per-sample signal traffic entering this chip over
	// the inter-chip link from its predecessor (0 for chip 0, whose
	// inputs arrive from the host).
	InSignals int
}

// String renders the shard.
func (s ShardInfo) String() string {
	return fmt.Sprintf("chip %d: %d groups, %d PEs, %d SMBs, %d CLBs, %d signals in",
		s.Chip, s.Groups, s.PEs, s.SMBs, s.CLBs, s.InSignals)
}

// Chips returns the number of chips the deployment occupies (1 when the
// model fits a single fabric or MaxChips was not set).
func (d *Deployment) Chips() int { return len(d.shards) }

// Shards describes the per-chip partition of a sharded deployment; it
// returns nil for a single-chip deployment.
func (d *Deployment) Shards() []ShardInfo {
	if len(d.shards) == 1 {
		return nil
	}
	infos := make([]ShardInfo, len(d.shards))
	for i, sh := range d.shards {
		in := 0
		if i > 0 {
			in = d.cutTraffic[i-1]
		}
		infos[i] = ShardInfo{
			Chip:      i,
			Groups:    sh.hi - sh.lo,
			PEs:       sh.pes,
			SMBs:      sh.smbs,
			CLBs:      sh.clbs,
			InSignals: in,
		}
	}
	return infos
}
