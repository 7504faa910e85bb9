package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// call is one request — or one batch call — as its caller saw it. Times
// are offsets from the start of the phase.
type call struct {
	// due is when the request was meant to be sent: the schedule's time in
	// an open loop, the moment the caller became free in a closed loop.
	due time.Duration
	// start is when it was actually sent (start − due is how late the
	// generator ran) and end when its reply arrived.
	start, end time.Duration
	// ok and bad count the samples the call carried that came back
	// correct, and those that came back wrong, refused or not at all.
	ok, bad int
}

// phase is one timed stretch of load and every call made in it. An open
// loop's phase is bucketed into equal segments afterwards; a closed loop is
// run as a row of short phases, one per segment, so that the host's speed
// can be measured between them. Either way every host-time metric is a
// median over segments with quartiles instead of one number.
type phase struct {
	// length is the schedule's length in an open loop; in a closed loop,
	// the time until the last call returned.
	length   time.Duration
	segments int
	calls    []call
}

// closedLoop runs a fixed number of callers for length: each issues its
// next call only when the previous one has returned, so a slower system
// is offered less load. do performs call number first[c]+i of caller c and
// reports how many of its samples were served correctly; first is advanced
// past the calls made, so the next closed loop carries on where this one
// stopped.
func closedLoop(callers int, length time.Duration, first []int, do func(caller, iter int) (ok, bad int)) phase {
	perCaller := make([][]call, callers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= length {
					return
				}
				ok, bad := do(c, first[c])
				first[c]++
				perCaller[c] = append(perCaller[c], call{due: start, start: start, end: time.Since(t0), ok: ok, bad: bad})
			}
		}(c)
	}
	wg.Wait()
	p := phase{length: time.Since(t0), segments: 1}
	for _, calls := range perCaller {
		p.calls = append(p.calls, calls...)
	}
	return p
}

// loopSegment is one segment of a closed loop with the host's speed
// measured around it.
type loopSegment struct {
	phase
	speed float64
}

// closedLoopSegments runs a closed loop as n segments of length/n each,
// calibrating the host before every segment and after the last. The
// callers finish their calls at the end of a segment, wait out the
// calibration and carry on with their next call. before, when not nil, is
// called as each segment starts.
func closedLoopSegments(callers int, length time.Duration, n int, before func(seg int), do func(caller, iter int) (ok, bad int)) []loopSegment {
	first := make([]int, callers)
	segs := make([]loopSegment, n)
	var sp speeds
	for i := range segs {
		sp.mark()
		if before != nil {
			before(i)
		}
		segs[i].phase = closedLoop(callers, length/time.Duration(n), first, do)
	}
	sp.mark()
	for i, s := range sp.around() {
		segs[i].speed = s
	}
	return segs
}

// rate is the segment's correct samples per second of host time.
func (p phase) rate() float64 {
	ok := 0
	for _, c := range p.calls {
		ok += c.ok
	}
	return float64(ok) / p.length.Seconds()
}

// poissonSchedule draws the due times of an open loop: exponential gaps
// at the given rate, from the seed alone, up to length.
func poissonSchedule(seed int64, ratePerSec float64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / ratePerSec
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends request i at due[i] whether or not earlier ones have
// returned, the way independent users arrive. A request's latency runs
// from its due time, so a stall is charged to every request it delays;
// how late the generator itself ran is kept in call.start.
func openLoop(due []time.Duration, length time.Duration, segments int, do func(i int) (ok, bad int)) phase {
	p := phase{length: length, segments: segments, calls: make([]call, len(due))}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			start := time.Since(t0)
			ok, bad := do(i)
			p.calls[i] = call{due: d, start: start, end: time.Since(t0), ok: ok, bad: bad}
		}(i, d)
	}
	wg.Wait()
	return p
}

// totals sums the samples attempted and failed over the phase.
func (p phase) totals() (attempted, failed int64) {
	for _, c := range p.calls {
		attempted += int64(c.ok + c.bad)
		failed += int64(c.bad)
	}
	return attempted, failed
}

// segmentLatencies returns, per segment, the q-quantile in milliseconds of
// the latencies (reply − due) of the calls due in it. Segments with
// fewer than minCalls are left out: a percentile they cannot support is
// not reported.
func (p phase) segmentLatencies(q float64, minCalls int) []float64 {
	seg := p.length / time.Duration(p.segments)
	buckets := make([][]float64, p.segments)
	for _, c := range p.calls {
		if s := int(c.due / seg); s >= 0 && s < p.segments {
			buckets[s] = append(buckets[s], float64(c.end-c.due)/float64(time.Millisecond))
		}
	}
	var out []float64
	for _, b := range buckets {
		if len(b) >= minCalls && len(b) > 0 {
			out = append(out, percentile(sortedCopy(b), q))
		}
	}
	return out
}

// lateP99 is the 99th percentile, in milliseconds, of how late the
// generator sent its requests — the validity check of an open loop.
func (p phase) lateP99() float64 {
	late := make([]float64, len(p.calls))
	for i, c := range p.calls {
		late[i] = math.Max(0, float64(c.start-c.due)/float64(time.Millisecond))
	}
	return percentile(sortedCopy(late), 0.99)
}
