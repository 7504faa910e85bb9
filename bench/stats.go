package main

import (
	"math"
	"sort"
)

// percentile reads the p-quantile (0 < p ≤ 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least
// p·n of the sample at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// summary is what every host-time row reports: the median of its
// samples (segments or rounds), their quartiles, and how many there were.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize takes the median and quartiles of a sample. The median of an
// even-sized sample is the mean of the two middle values; the quartiles
// are the medians of the lower and upper halves (the middle value of an
// odd-sized sample belongs to neither).
func summarize(v []float64) summary {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	return summary{Median: middle(s), Q1: middle(s[:n/2]), Q3: middle(s[(n+1)/2:]), N: n}
}

// middle is the median of an ascending-sorted sample; for a one-element
// sample's empty halves it returns 0, which summarize never reads as a
// quartile because iqrShare treats N < 4 as unresolved.
func middle(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the interquartile distance as a share of the median — the
// spread a bound is compared against. It is +Inf when the sample is too
// small to have quartiles or the median is 0.
func (s summary) iqrShare() float64 {
	if s.N < 4 || s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
