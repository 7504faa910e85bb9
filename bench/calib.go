package main

import (
	"math/bits"
	"time"
)

// The reference host is a shared virtual machine whose speed drifts: the
// same fixed work takes up to twice as long for minutes at a time, and for
// milliseconds at a time in between, depending on what its neighbours do.
// Wall clock alone would make two runs of one commit differ by more than
// any bound worth having. So every timed stretch — a set-up, a closed-loop
// segment, a compile round — has the host's speed measured just before and
// just after it, by timing a fixed kernel that lives in this file and
// never calls the program, and time spent working is reported at reference
// speed: seconds × speed, samples/s ÷ speed. Time spent waiting on a timer
// (the paced phase's latency) is not work and is left as measured.

// calUnits is the fixed work of one calibration: about 80 ms on the
// reference host.
var calUnits = 1000

const (
	// calRefUnitsPerSec is what one thread of the reference host (2 vCPUs
	// of a 2.1 GHz Xeon) manages in one of its fast spells; speed 1.0.
	calRefUnitsPerSec = 14000
	calWords          = 4096
	// calStreamPasses sizes the unit's second half to take as long as its
	// first.
	calStreamPasses = 8
)

// calSink keeps the kernel's results alive.
var calSink float64

var calKernel = newCalState()

// calState is the kernel's working set: 80 KiB, resident in L2.
type calState struct {
	f    []float64
	w    []uint64
	next []int32
}

func newCalState() *calState {
	s := &calState{f: make([]float64, calWords), w: make([]uint64, calWords), next: make([]int32, calWords)}
	// One cycle through every slot, a fixed stride coprime with the length.
	for i := range s.next {
		s.next[i] = int32((i + 1667) % calWords)
	}
	return s
}

// unit is one unit of the kernel, in two halves that take about the same
// time on the reference host, because the host slows them differently. The
// first is chains of dependent operations — a floating-point recurrence, a
// xorshift with popcounts, a walk of dependent loads — which a neighbour on
// the core's other hyperthread hardly slows. The second is independent
// integer and floating-point streams that fill the core's execution ports,
// which the same neighbour slows by half. The simulator's kernels and the
// compiler sit between the two: measured against ten runs of each workload,
// either half alone left twice the spread of both together.
func (s *calState) unit() float64 {
	acc := 0.0
	for i, v := range s.f {
		acc = acc*0.5 + v
		s.f[i] = acc*0.25 + 1
	}
	ones := 0
	x := uint64(0x9e3779b97f4a7c15)
	for i := range s.w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.w[i] ^= x
		ones += bits.OnesCount64(s.w[i])
	}
	at := int32(0)
	for range s.next {
		at = s.next[at]
		if s.w[at]&1 == 0 {
			ones++
		}
	}
	var s0, s1, s2, s3 uint64
	var f0, f1, f2, f3 float64
	for pass := uint64(0); pass < calStreamPasses; pass++ {
		w, f := s.w, s.f
		for i := 0; i+4 <= len(w); i += 4 {
			s0 += uint64(bits.OnesCount64(w[i] ^ pass))
			s1 += w[i+1]>>3 ^ w[i+1]
			s2 += w[i+2] * 0x9e3779b97f4a7c15
			s3 ^= w[i+3] + uint64(i)
			f0 += f[i] * 1.0000001
			f1 += f[i+1] * 0.9999999
			f2 += f[i+2] * 1.0000002
			f3 += f[i+3] * 0.9999998
		}
	}
	return acc + float64(ones) + float64(s0+s1+s2+s3) + f0 + f1 + f2 + f3
}

// calibrate measures the host's speed now, 1.0 being the reference host:
// calUnits units of the kernel on the calling goroutine, as units per second
// over calRefUnitsPerSec. One thread is enough — it finds a free core when a
// neighbour holds the other, as the program's own threads do — and a
// calibration on every core at once reads a brief loss of one core as half
// the speed, which nothing the workloads run is slowed by.
func calibrate() float64 {
	sum := 0.0
	t0 := time.Now()
	for u := 0; u < calUnits; u++ {
		sum += calKernel.unit()
	}
	elapsed := time.Since(t0).Seconds()
	calSink += sum
	return float64(calUnits) / elapsed / calRefUnitsPerSec
}

// speeds collects calibrations made between timed stretches: mark before
// each stretch and once after the last.
type speeds struct{ marks []float64 }

func (s *speeds) mark() { s.marks = append(s.marks, calibrate()) }

// around returns, for each stretch, the mean of the speeds measured just
// before and just after it.
func (s *speeds) around() []float64 {
	if len(s.marks) < 2 {
		return nil
	}
	out := make([]float64, len(s.marks)-1)
	for i := range out {
		out[i] = (s.marks[i] + s.marks[i+1]) / 2
	}
	return out
}
