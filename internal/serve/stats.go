package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of an Engine's serving counters,
// mirroring PerfSummary's role for the modeled hardware: what the engine
// actually sustained rather than what the perf model predicts.
type Stats struct {
	// Requests is the number of completed classifications; Errors counts
	// those that returned an error; Shed counts those dropped without
	// simulating because their caller's context ended first — while the
	// call waited for an executor, or before a batch call reached them.
	// All three count samples, not calls.
	Requests uint64
	Errors   uint64
	Shed     uint64
	// ExecBatches counts executor-level batched kernel invocations (one
	// per pass that passed validation: a call's share on one executor);
	// MeanExecBatch and MaxExecBatch describe the executed batch sizes in
	// samples — the degree of kernel-level batching actually achieved.
	// MaxExecBatch ≤ max(MaxBatch, 64).
	ExecBatches   uint64
	MeanExecBatch float64
	MaxExecBatch  int
	// SparseKernels counts spiking-kernel calls — one per crossbar stage
	// per executed batch — summed over every execution replica, and
	// SpikeDensity is the aggregate observed input spike density across
	// those calls. Both zero under ModeReference, which runs no spiking
	// kernel. (There is one kernel, no dense counterpart; the name follows
	// xbar.KernelStats.SparseBatches, which is frozen.)
	SparseKernels uint64
	SpikeDensity  float64
	// FaultedCells is the deployment's residual stuck-cell count: stuck
	// logical weight cells the fault model pinned across the program's
	// crossbars, after any spare-row/column remapping. Every replica
	// programs identical faults, so this is per-deployment, not
	// per-executor; 0 without a fault model.
	FaultedCells int
	// ThroughputSPS is completed requests per second of engine uptime.
	ThroughputSPS float64
	// P50LatencyUS, P99LatencyUS and P999LatencyUS are arrival-to-completion
	// latency percentiles — the wait for an executor plus the run — over
	// every observation since the engine was built, one per call whatever
	// its batch size (a call shed whole records none), each within 1/64 of
	// the exact nearest-rank value (see LatencyHistogram, which the fleet
	// layer merges these into).
	P50LatencyUS  float64
	P99LatencyUS  float64
	P999LatencyUS float64
	// QueueDepth, Workers, MaxBatch and Chips describe the engine's
	// current shape. QueueDepth counts calls waiting for an executor right
	// now; Workers is the pool size; Chips is the deployment's compiled
	// chip count (1 when the model runs whole on one chip).
	QueueDepth int
	Workers    int
	MaxBatch   int
	Chips      int
	UptimeS    float64
}

// LatencyHistogram is the lock-free latency recorder behind every
// percentile the serving stack reports: the engine records into one, and
// the fleet's per-model stats merge its engines' (Merge) and read
// percentiles back through Percentiles, so "p999" means the same
// computation everywhere. It counts
// every observation since it was made, in log-linear buckets: durations
// below 64 ns exactly, longer ones in 32 buckets per power of two. A
// percentile reads the nearest-rank observation's bucket and reports its
// middle, which is within 1/64 (≈ 1.6 %) of that observation. The zero
// value is ready to use; Record is one atomic add and all methods are safe
// for concurrent use.
type LatencyHistogram struct {
	counts [histBuckets]atomic.Uint64
}

// The bucket layout: subBits bits of mantissa below each power of two.
const (
	subBits     = 5
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits) * subBuckets // up to 2^63−1 ns
)

// histBucket is the bucket holding ns: the value itself below 2·subBuckets,
// otherwise its power of two and the subBits bits below the leading one.
func histBucket(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	shift := bits.Len64(ns) - 1 - subBits
	return shift*subBuckets + int(ns>>shift)
}

// histMiddle is the middle of bucket i in nanoseconds: the inverse of
// histBucket, halfway across the bucket's whole nanoseconds.
func histMiddle(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	shift := i/subBuckets - 1
	lo := uint64(i%subBuckets+subBuckets) << shift
	return float64(lo) + float64(uint64(1)<<shift-1)/2
}

// Record adds one request latency. A negative duration counts as zero.
func (h *LatencyHistogram) Record(d time.Duration) {
	h.counts[histBucket(uint64(max(d, 0)))].Add(1)
}

// Merge adds every observation src has recorded to h, bucket by bucket:
// both share one bucket layout, so h then holds exactly the counts of one
// histogram that recorded both sets. An observation src records while
// Merge runs may or may not be included.
func (h *LatencyHistogram) Merge(src *LatencyHistogram) {
	for i := range src.counts {
		if n := src.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
}

// Percentiles reads the three serving percentiles (p50/p99/p999) the
// stats surfaces report, in microseconds, nearest-rank over every
// observation. All zero when nothing has been recorded.
func (h *LatencyHistogram) Percentiles() (p50, p99, p999 float64) {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 {
		return 0, 0, 0
	}
	// Counts only grow, so a second pass racing Record still reaches every
	// rank below n.
	ps := [3]float64{0.50, 0.99, 0.999}
	var us [3]float64
	k, seen := 0, uint64(0)
	for i := range h.counts {
		seen += h.counts[i].Load()
		// The nearest-rank observation of p is the one at index
		// ⌊p·(n−1)⌋ in ascending order.
		for k < len(ps) && uint64(ps[k]*float64(n-1)) < seen {
			us[k] = histMiddle(i) / float64(time.Microsecond)
			k++
		}
		if k == len(ps) {
			break
		}
	}
	return us[0], us[1], us[2]
}

// tracker accumulates engine statistics. Counters are atomic, and so is
// the shared LatencyHistogram. Every sample a kernel call settles counts
// in execItems or in errors, so their sum is the requests served.
type tracker struct {
	start time.Time
	lat   LatencyHistogram

	errors      atomic.Uint64
	shed        atomic.Uint64
	execBatches atomic.Uint64
	execItems   atomic.Uint64
	execMax     atomic.Int64
}

// now is the time since the engine was built. It reads the monotonic
// clock alone, which costs less than time.Now's wall clock and monotonic
// pair.
func (t *tracker) now() time.Duration { return time.Since(t.start) }

// recordSince records the latency of one call that arrived at now() =
// arrival.
func (t *tracker) recordSince(arrival time.Duration) { t.lat.Record(t.now() - arrival) }

// recordExecBatch records one executed batch of n samples.
func (t *tracker) recordExecBatch(n int) {
	t.execBatches.Add(1)
	t.execItems.Add(uint64(n))
	for {
		cur := t.execMax.Load()
		if int64(n) <= cur || t.execMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func (t *tracker) snapshot() Stats {
	s := Stats{
		Errors: t.errors.Load(),
		Shed:   t.shed.Load(),
	}
	s.Requests = t.execItems.Load() + s.Errors
	s.ExecBatches = t.execBatches.Load()
	if s.ExecBatches > 0 {
		s.MeanExecBatch = float64(t.execItems.Load()) / float64(s.ExecBatches)
	}
	s.MaxExecBatch = int(t.execMax.Load())
	uptime := time.Since(t.start).Seconds()
	s.UptimeS = uptime
	if uptime > 0 {
		s.ThroughputSPS = float64(s.Requests) / uptime
	}
	s.P50LatencyUS, s.P99LatencyUS, s.P999LatencyUS = t.lat.Percentiles()
	return s
}
