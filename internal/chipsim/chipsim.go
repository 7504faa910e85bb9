// Package chipsim executes a functionally synthesized network the way the
// chip does: core-ops are scheduled by the spatial-to-temporal mapper
// (Algorithm 1), spike trains stream between PEs on bufferless NBD edges,
// SMB instances store counts (with their n-bit saturation) on buffered
// edges, and a synthesized CLB controller sequences every PE's sampling
// windows. It is the integration point of the whole repository: synth ×
// mapper × xbar × smb × clb, cross-validated in tests against the
// program-level simulation (synth.Program.Run). A PE here is what it is in
// the paper (§4.2): one programmed crossbar whose columns drive ideal
// integrate-and-fire neurons.
package chipsim

import (
	"fmt"
	"math/rand"

	"fpsa/internal/clb"
	"fpsa/internal/device"
	"fpsa/internal/mapper"
	"fpsa/internal/smb"
	"fpsa/internal/spike"
	"fpsa/internal/synth"
	"fpsa/internal/xbar"
)

// Options configures a chip run.
type Options struct {
	// Spec is the ReRAM cell (default device.Cell4Bit with σ=0).
	Spec device.CellSpec
	// Rng enables programming variation when non-nil.
	Rng *rand.Rand
}

// Result reports one chip execution.
type Result struct {
	// Outputs are the network's output spike counts.
	Outputs []int
	// MakespanCycles is the schedule's end cycle.
	MakespanCycles int
	// BufferedEdges counts SMB-mediated connections.
	BufferedEdges int
	// SMBWrites is the total count-write traffic (endurance accounting).
	SMBWrites int64
	// ControllerLUTs is the LUT cost of the per-PE window controllers
	// actually synthesized and stepped during the run.
	ControllerLUTs int
}

// Run schedules and executes prog on the simulated chip for one input
// vector of spike counts.
func Run(prog *synth.Program, input []int, opts Options) (*Result, error) {
	if len(input) != prog.InputSize {
		return nil, fmt.Errorf("chipsim: input length %d, want %d", len(input), prog.InputSize)
	}
	window := prog.Params.SamplingWindow()
	for i, v := range input {
		if v < 0 || v > window {
			return nil, fmt.Errorf("chipsim: input[%d] = %d outside [0,%d]", i, v, window)
		}
	}
	spec := opts.Spec
	if spec.Bits == 0 {
		spec = device.Cell4Bit
	}
	if opts.Rng == nil {
		spec.Sigma = 0
	}

	// Schedule the core-op graph exactly as the mapper would.
	alloc, err := mapper.Allocate(prog.Graph, 1)
	if err != nil {
		return nil, err
	}
	og, err := mapper.Expand(prog.Graph, 1<<20)
	if err != nil {
		return nil, err
	}
	sched, err := mapper.ScheduleOps(og, alloc, window)
	if err != nil {
		return nil, err
	}
	if err := sched.Validate(og, alloc, window); err != nil {
		return nil, fmt.Errorf("chipsim: schedule invalid: %w", err)
	}

	// The chip scheduler handles fully spatial programs: one executable
	// stage per weight group (FC networks). Convolutional functional
	// programs time-multiplex groups over many stages and are served by
	// the program-level executor instead.
	stageOfGroup := make(map[int]int, len(prog.Stages))
	for si, st := range prog.Stages {
		if _, dup := stageOfGroup[st.GroupID]; dup {
			return nil, fmt.Errorf("chipsim: group %d has multiple stages (time-multiplexed program); use synth.Program.Run", st.GroupID)
		}
		stageOfGroup[st.GroupID] = si
	}

	res := &Result{MakespanCycles: sched.Makespan}
	rep := device.NewAdd(spec, prog.Params.CellsPerWeight)
	ifNeuron := func(eta float64) spike.Stepper { return &spike.Neuron{Eta: eta} }

	// Execute groups in topological (schedule) order. NBD edges hand
	// the producer's train over directly (one-cycle skew preserves the
	// pattern); buffered edges round-trip through a real SMB instance.
	outTrains := make([][]spike.Train, len(prog.Graph.Groups))
	for gi, grp := range prog.Graph.Groups {
		si, ok := stageOfGroup[gi]
		if !ok {
			return nil, fmt.Errorf("chipsim: group %d (%s) has no executable stage", gi, grp.Name)
		}
		stage := prog.Stages[si]
		inputs := make([]spike.Train, len(stage.InRefs))
		for r, ref := range stage.InRefs {
			switch {
			case ref.Stage < 0:
				inputs[r] = spike.UniformTrain(input[ref.Col], window)
			default:
				srcGroup := prog.Stages[ref.Stage].GroupID
				tr := outTrains[srcGroup][ref.Col]
				if sched.Buffered[mapper.Edge{From: srcGroup, To: gi}] {
					buffered, writes, err := smbRoundTrip(prog.Params, tr)
					if err != nil {
						return nil, err
					}
					res.SMBWrites += writes
					inputs[r] = buffered
				} else {
					// NBD: the schedule proves the consumer covers
					// the producer shifted by one cycle.
					if sched.Start[gi] != sched.Start[srcGroup]+1 {
						return nil, fmt.Errorf("chipsim: NBD edge %d→%d without unit skew", srcGroup, gi)
					}
					inputs[r] = tr
				}
			}
		}
		unit, err := xbar.Program(xbar.Config{Params: prog.Params, Spec: spec, Rep: rep, Eta: grp.Eta}, grp.Weights, opts.Rng)
		if err != nil {
			return nil, fmt.Errorf("chipsim: group %s: %w", grp.Name, err)
		}
		outs, err := unit.SimulateTrains(inputs, ifNeuron)
		if err != nil {
			return nil, fmt.Errorf("chipsim: group %s: %w", grp.Name, err)
		}
		outTrains[gi] = outs

		// Sequence the PE's sampling window with a real synthesized
		// controller and check it fires the reset exactly once per
		// window (the §4.2 reset before each new window).
		ctl, err := clb.NewController(window, prog.Params.LUTInputs,
			[]clb.Event{{Name: "reset", Cycles: []int{0}}})
		if err != nil {
			return nil, err
		}
		res.ControllerLUTs += ctl.LUTCount()
		resets := 0
		for c := 0; c < window; c++ {
			ev, err := ctl.Step()
			if err != nil {
				return nil, err
			}
			if ev["reset"] {
				resets++
			}
		}
		if resets != 1 {
			return nil, fmt.Errorf("chipsim: controller fired %d resets per window", resets)
		}
	}
	for _, buf := range sched.Buffered {
		if buf {
			res.BufferedEdges++
		}
	}

	res.Outputs = make([]int, len(prog.OutputRefs))
	for i, ref := range prog.OutputRefs {
		if ref.Stage < 0 {
			res.Outputs[i] = input[ref.Col]
			continue
		}
		srcGroup := prog.Stages[ref.Stage].GroupID
		res.Outputs[i] = outTrains[srcGroup][ref.Col].Count()
	}
	return res, nil
}

// smbRoundTrip stores a train's count in a fresh 16 Kb SMB and re-emits it
// as the uniform train the embedded spike generator produces, returning
// the write traffic.
func smbRoundTrip(params device.Params, tr spike.Train) (spike.Train, int64, error) {
	buf, err := smb.New(params, tr.Window())
	if err != nil {
		return nil, 0, err
	}
	if err := buf.ReceiveTrain(0, tr); err != nil {
		return nil, 0, err
	}
	out, err := buf.EmitTrain(0)
	if err != nil {
		return nil, 0, err
	}
	return out, buf.Writes(), nil
}
