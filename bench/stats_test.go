package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.50, 5}, // ceil(0.5·10) = 5th value
		{0.51, 6},
		{0.90, 9},
		{0.99, 10},
		{1.00, 10},
		{0.01, 1},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	s := summarize([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}) // 1..10 shuffled
	if s.N != 10 || s.Median != 5.5 || s.Q1 != 3 || s.Q3 != 8 {
		t.Errorf("summarize(1..10) = %+v, want median 5.5, quartiles 3 and 8", s)
	}
	if got := s.iqrShare(); math.Abs(got-5/5.5) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, 5/5.5)
	}
	odd := summarize([]float64{5, 1, 3, 2, 4}) // the middle value belongs to neither half
	if odd.Median != 3 || odd.Q1 != 1.5 || odd.Q3 != 4.5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 1.5 and 4.5", odd)
	}
	if got := summarize([]float64{1, 2, 3}).iqrShare(); !math.IsInf(got, 1) {
		t.Errorf("three samples have no quartiles to speak of: iqrShare = %v, want +Inf", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestUnresolvedWhenSegmentsSpreadWiderThanBound(t *testing.T) {
	m := metricDef{Name: "throughput_sps", Unit: "1/s", Better: "higher"}
	var r result
	r.addHost(m, 0.10, hostSamples{raw: []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}})
	r.addHost(m, 0.10, hostSamples{raw: []float64{100, 140, 60, 100, 150, 50, 100, 130, 70, 100}})
	if r.Rows[0].Status != statusOK {
		t.Errorf("tight segments: status %q, want ok", r.Rows[0].Status)
	}
	if r.Rows[1].Status != statusUnresolved {
		t.Errorf("wide segments: status %q, want unresolved", r.Rows[1].Status)
	}
}
