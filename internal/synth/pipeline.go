package synth

import (
	"fmt"

	"fpsa/internal/shard"
)

// NewPipelineExecutor is NewExecutor: it does not read plan. A deployment's
// chips are the compile's partition, and the stage walk, programming order
// and outputs are the same at every chip count. It stays for bench/
// (ROADMAP item 1(f)).
func NewPipelineExecutor(p *Program, plan *shard.Plan, opts RunOptions) (*Executor, error) {
	return NewExecutor(p, opts)
}

// PartitionStages cuts the program's stage list into up to maxChips
// per-chip segments using internal/shard: per-chip load is the number of
// distinct programmed crossbars (weight groups) the segment owns, cut
// traffic is the number of logical signals (stage-output columns and
// forwarded external inputs) crossing each boundary, and a weight group
// shared by several stages (convolution positions) pins all of them to
// one chip — a physical crossbar lives on exactly one die.
//
// maxChips is clamped to what the program supports: if no legal
// maxChips-way cut exists (fewer stages than chips, or shared groups pin
// too much together), the largest feasible chip count is used, down to a
// single chip. The plan is deterministic for a given program and policy.
func (p *Program) PartitionStages(maxChips int, policy shard.Policy) (*shard.Plan, error) {
	n := len(p.Stages)
	if n == 0 {
		return nil, fmt.Errorf("synth: program has no stages to partition")
	}
	if maxChips < 1 {
		maxChips = 1
	}
	if maxChips > n {
		maxChips = n
	}

	// Per-stage weight: 1 where a group's crossbar is first programmed,
	// 0 for later reuses of the same group.
	weights := make([]int, n)
	firstUse := make(map[int]int, len(p.Graph.Groups))
	lastUse := make(map[int]int, len(p.Graph.Groups))
	for si, st := range p.Stages {
		if _, ok := firstUse[st.GroupID]; !ok {
			firstUse[st.GroupID] = si
			weights[si] = 1
		}
		lastUse[st.GroupID] = si
	}

	// A cut between stages c-1 and c is illegal while any group spans it.
	illegal := make([]bool, n+1)
	for gid, first := range firstUse { //fpsa:nondet OR-accumulates a bool mask; order-free
		for c := first + 1; c <= lastUse[gid]; c++ {
			illegal[c] = true
		}
	}

	// Signals: each referenced (producer stage, column) is one signal
	// alive from its producer to its last consumer; external input
	// columns are produced off-chain (Prod = -1). Output refs stay live
	// to the final stage — the last chip emits the network's outputs.
	type src struct{ stage, col int }
	last := make(map[src]int)
	note := func(ref ExecRef, consumer int) {
		switch ref.Stage {
		case ZeroStage:
			return // constant zero is materialized locally, never shipped
		case ExternalStage:
			if prev, ok := last[src{-1, ref.Col}]; !ok || consumer > prev {
				last[src{-1, ref.Col}] = consumer
			}
		default:
			if prev, ok := last[src{ref.Stage, ref.Col}]; !ok || consumer > prev {
				last[src{ref.Stage, ref.Col}] = consumer
			}
		}
	}
	for si, st := range p.Stages {
		for _, ref := range st.InRefs {
			note(ref, si)
		}
	}
	for _, ref := range p.OutputRefs {
		note(ref, n-1)
	}
	// Coalesce per (producer, last consumer). Signal order is free to
	// vary (map iteration): the partitioner only ever sums widths per
	// cut, so the plan stays deterministic.
	width := make(map[[2]int]int, len(last))
	for s, l := range last { //fpsa:nondet counts into a map; order-free
		width[[2]int{s.stage, l}]++
	}
	signals := make([]shard.Signal, 0, len(width))
	for k, w := range width { //fpsa:nondet the partitioner only sums widths per cut
		signals = append(signals, shard.Signal{Prod: k[0], Last: k[1], Width: w})
	}

	// Degrade gracefully: the densest legal cut count wins.
	for chips := maxChips; ; chips-- {
		plan, err := shard.Partition(weights, signals, illegal, shard.Options{Chips: chips, Policy: policy})
		if err == nil {
			return plan, nil
		}
		if chips == 1 {
			return nil, fmt.Errorf("synth: partition failed even at one chip: %w", err)
		}
	}
}
