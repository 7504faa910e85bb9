package serve

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// nearestRank reads the p-quantile of an ascending-sorted sample the way
// LatencyHistogram.Percentiles ranks it: the observation at ⌊p·(n−1)⌋.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// histError is the relative error LatencyHistogram's doc states.
const histError = 1.0 / 64

// TestLatencyHistogramWithinStatedError: on random log-normal durations
// from tens of nanoseconds to seconds, every reported p50/p99/p999 is
// within 1/64 of the exact nearest-rank value over the same observations,
// and the three are ordered. Sample counts include 1 and 2, where the
// three ranks meet.
func TestLatencyHistogramWithinStatedError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		if trial < 2 {
			n = trial + 1
		}
		mu, sigma := 3+rng.Float64()*14, rng.Float64()*3 // e^3 ns ≈ 20 ns to e^17 ns ≈ 24 s
		var h LatencyHistogram
		exact := make([]float64, n)
		for i := range exact {
			d := time.Duration(math.Exp(mu + sigma*rng.NormFloat64()))
			h.Record(d)
			exact[i] = float64(d) / float64(time.Microsecond)
		}
		sort.Float64s(exact)
		p50, p99, p999 := h.Percentiles()
		for _, c := range []struct {
			name string
			got  float64
			p    float64
		}{{"p50", p50, 0.50}, {"p99", p99, 0.99}, {"p999", p999, 0.999}} {
			want := nearestRank(exact, c.p)
			if math.Abs(c.got-want) > want*histError+1e-12 {
				t.Fatalf("trial %d (n %d, µ %.2f, σ %.2f): %s = %g µs, exact %g µs: off by %.3g, more than 1/64",
					trial, n, mu, sigma, c.name, c.got, want, math.Abs(c.got-want)/want)
			}
		}
		if !(p50 <= p99 && p99 <= p999) {
			t.Fatalf("trial %d: p50 %g, p99 %g, p999 %g out of order", trial, p50, p99, p999)
		}
	}
}

// TestLatencyHistogramBuckets: durations below 64 ns read back exactly,
// every bucket's middle falls in the bucket, and the extremes (zero, a
// negative duration, the longest representable one) land in range.
func TestLatencyHistogramBuckets(t *testing.T) {
	for ns := uint64(0); ns < 2*subBuckets; ns++ {
		if got := histMiddle(histBucket(ns)); got != float64(ns) {
			t.Fatalf("%d ns reads back as %g", ns, got)
		}
	}
	for i := 0; i < histBuckets; i++ {
		if got := histBucket(uint64(histMiddle(i))); got != i {
			t.Fatalf("bucket %d's middle %g ns falls in bucket %d", i, histMiddle(i), got)
		}
	}
	if got := histBucket(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("the longest duration falls in bucket %d, want the last, %d", got, histBuckets-1)
	}
	var h LatencyHistogram
	h.Record(-time.Second)
	if p50, p99, p999 := h.Percentiles(); p50 != 0 || p99 != 0 || p999 != 0 {
		t.Errorf("a negative duration reads back as %g/%g/%g µs, want zeros", p50, p99, p999)
	}
	h = LatencyHistogram{}
	h.Record(math.MaxInt64)
	if _, _, p999 := h.Percentiles(); p999 < float64(math.MaxInt64/1000)*(1-histError) {
		t.Errorf("p999 with the longest duration = %g µs", p999)
	}
}

// TestLatencyHistogramEmpty: nothing recorded reads as zeros.
func TestLatencyHistogramEmpty(t *testing.T) {
	var h LatencyHistogram
	if p50, p99, p999 := h.Percentiles(); p50 != 0 || p99 != 0 || p999 != 0 {
		t.Errorf("empty histogram = %g/%g/%g, want zeros", p50, p99, p999)
	}
}

// TestLatencyHistogramConcurrent: Record from several goroutines while
// Percentiles reads loses no observation (run under -race, it also shows
// the two share nothing unsynchronized).
func TestLatencyHistogramConcurrent(t *testing.T) {
	const goroutines, each = 4, 2000
	var h LatencyHistogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(g*each+i) * time.Microsecond)
			}
		}(g)
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				if p50, p99, p999 := h.Percentiles(); !(p50 <= p99 && p99 <= p999) {
					t.Errorf("mid-flight percentiles out of order: %g/%g/%g", p50, p99, p999)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-read
	if n := latencies(&h); n != goroutines*each {
		t.Fatalf("%d observations counted, want %d", n, goroutines*each)
	}
	// 0 µs … 7999 µs, once each: the exact nearest-rank p50 is 3999 µs.
	if p50, _, _ := h.Percentiles(); math.Abs(p50-3999) > 3999*histError {
		t.Errorf("p50 = %g µs, want 3999 within 1/64", p50)
	}
}

// TestLatencyHistogramMergeExact is Merge's property test: for random
// observation sets A and B (either may be empty), recording A into one
// histogram and merging in one that recorded B leaves bucket counts
// identical to one histogram that recorded A ∪ B, so the percentiles
// agree exactly too; merging into an empty histogram copies.
func TestLatencyHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var a, b, union, copied LatencyHistogram
		for k, h := range []*LatencyHistogram{&a, &b} {
			n := rng.Intn(3000)
			if trial == k { // trial 0 leaves A empty, trial 1 B
				n = 0
			}
			mu, sigma := 3+rng.Float64()*14, rng.Float64()*3
			for i := 0; i < n; i++ {
				d := time.Duration(math.Exp(mu + sigma*rng.NormFloat64()))
				h.Record(d)
				union.Record(d)
			}
		}
		copied.Merge(&a)
		a.Merge(&b)
		for i := range union.counts {
			if got, want := a.counts[i].Load(), union.counts[i].Load(); got != want {
				t.Fatalf("trial %d: bucket %d holds %d after Merge, %d recorded once", trial, i, got, want)
			}
			if got, want := copied.counts[i].Load(), a.counts[i].Load()-b.counts[i].Load(); got != want {
				t.Fatalf("trial %d: bucket %d holds %d merged into an empty histogram, want %d", trial, i, got, want)
			}
		}
		p50, p99, p999 := a.Percentiles()
		if w50, w99, w999 := union.Percentiles(); p50 != w50 || p99 != w99 || p999 != w999 {
			t.Fatalf("trial %d: merged percentiles %g/%g/%g, recorded once %g/%g/%g", trial, p50, p99, p999, w50, w99, w999)
		}
	}
}
