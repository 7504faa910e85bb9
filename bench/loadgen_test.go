package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 3000, 2*time.Second)
	b := poissonSchedule(7, 3000, 2*time.Second)
	c := poissonSchedule(8, 3000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	// 6000 expected arrivals, standard deviation about 77.
	if n := len(a); n < 5500 || n > 6500 {
		t.Errorf("%d arrivals in 2 s at 3000/s", n)
	}
	for i, d := range a {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("due time %d = %v is out of order or out of range", i, d)
		}
	}
}

func TestRateCountsCorrectSamplesOverTheTimeTheSegmentTook(t *testing.T) {
	p := phase{length: 2 * time.Second, segments: 1, calls: []call{
		{start: 0, end: time.Second, ok: 10},
		{start: time.Second, end: 2 * time.Second, ok: 6, bad: 2},
		{start: 0, end: 2 * time.Second, bad: 4}, // failures serve nothing
	}}
	if got := p.rate(); math.Abs(got-8) > 1e-9 {
		t.Errorf("rate = %v samples/s, want 8", got)
	}
	if a, f := p.totals(); a != 22 || f != 6 {
		t.Errorf("totals = %d attempted, %d failed, want 22 and 6", a, f)
	}
}

func TestClosedLoopSegmentsCarryOnWhereTheLastOneStopped(t *testing.T) {
	var seen [2][]int
	var started []int
	segs := closedLoopSegments(2, 30*time.Millisecond, 3, func(seg int) { started = append(started, seg) }, func(c, iter int) (int, int) {
		seen[c] = append(seen[c], iter)
		time.Sleep(time.Millisecond)
		return 1, 0
	})
	if len(segs) != 3 || !reflect.DeepEqual(started, []int{0, 1, 2}) {
		t.Fatalf("%d segments, started %v", len(segs), started)
	}
	calls := 0
	for i, sg := range segs {
		if sg.speed <= 0 || sg.length < 10*time.Millisecond || len(sg.calls) == 0 {
			t.Errorf("segment %d: speed %v, length %v, %d calls", i, sg.speed, sg.length, len(sg.calls))
		}
		calls += len(sg.calls)
	}
	for c, iters := range seen {
		for i, iter := range iters {
			if iter != i {
				t.Fatalf("caller %d made calls %v: not 0, 1, 2, ... across the segments", c, iters)
			}
		}
	}
	if calls != len(seen[0])+len(seen[1]) {
		t.Errorf("segments hold %d calls, callers made %d", calls, len(seen[0])+len(seen[1]))
	}
}

func TestHostSamplesAtReferenceSpeed(t *testing.T) {
	var times, rates hostSamples
	times.addTime(10, 0.5)
	times.addTime(10, 2)
	if got := times.atReferenceSpeed(); got[0] != 5 || got[1] != 20 {
		t.Errorf("times at reference speed = %v: a half-speed host's 10 s is 5 s of reference work", got)
	}
	rates.addRate(10, 0.5)
	rates.addRate(10, 2)
	if got := rates.atReferenceSpeed(); got[0] != 20 || got[1] != 5 {
		t.Errorf("rates at reference speed = %v", got)
	}
	waits := hostSamples{raw: []float64{3, 4}}
	if got := waits.atReferenceSpeed(); got[0] != 3 || got[1] != 4 {
		t.Errorf("samples without factors must stay as measured, got %v", got)
	}
	sp := speeds{marks: []float64{1, 2, 4}}
	if got := sp.around(); len(got) != 2 || got[0] != 1.5 || got[1] != 3 {
		t.Errorf("speeds around two stretches = %v", got)
	}
	if got := join(stretch{1, 1}, stretch{3, 2}); got.seconds != 4 || got.speed != 1.75 {
		t.Errorf("join = %+v, want 4 s at the time-weighted speed 1.75", got)
	}
}

func TestSegmentLatenciesRunFromDueTimeAndNeedEnoughCalls(t *testing.T) {
	msec := time.Millisecond
	p := phase{length: 2 * time.Second, segments: 2}
	// Segment 0: ten calls due 100 ms apart, latency 1..10 ms from due,
	// each sent 5 ms late. Segment 1: one call only.
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * 100 * msec
		p.calls = append(p.calls, call{due: due, start: due + 5*msec, end: due + time.Duration(i+1)*msec, ok: 1})
	}
	p.calls = append(p.calls, call{due: 1500 * msec, start: 1500 * msec, end: 1600 * msec, ok: 1})
	if got := p.segmentLatencies(0.5, 5); len(got) != 1 || got[0] != 5 {
		t.Errorf("median latencies = %v, want [5] (segment 1 has too few calls)", got)
	}
	if got := p.segmentLatencies(0.5, 1); len(got) != 2 || got[1] != 100 {
		t.Errorf("median latencies = %v, want both segments, 100 ms in the second", got)
	}
	if got := p.lateP99(); got != 5 {
		t.Errorf("lateness p99 = %v ms, want 5", got)
	}
}

func TestLoopsRecordEveryCall(t *testing.T) {
	closed := closedLoop(3, 30*time.Millisecond, make([]int, 3), func(c, iter int) (int, int) {
		time.Sleep(time.Millisecond)
		if iter == 0 {
			return 0, 2
		}
		return 2, 0
	})
	attempted, failed := closed.totals()
	if failed != 6 || attempted < 12 {
		t.Errorf("closed loop: %d attempted, %d failed; want the 3 first calls failed and more served", attempted, failed)
	}
	for _, c := range closed.calls {
		if c.end < c.start || c.due != c.start {
			t.Fatalf("closed-loop call %+v: a caller's call is due when it is sent", c)
		}
	}
	due := poissonSchedule(1, 2000, 30*time.Millisecond)
	open := openLoop(due, 30*time.Millisecond, 3, func(i int) (int, int) { return 1, 0 })
	if a, f := open.totals(); a != int64(len(due)) || f != 0 {
		t.Errorf("open loop: %d attempted, %d failed; want all %d served", a, f, len(due))
	}
	for i, c := range open.calls {
		if c.due != due[i] || c.start < c.due || c.end < c.start {
			t.Fatalf("open-loop call %d = %+v, due %v", i, c, due[i])
		}
	}
}
