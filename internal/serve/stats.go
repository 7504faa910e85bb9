package serve

import (
	"fmt"
	"sort"
	"sync"
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
	// RunBatch per Infer call or InferBatch chunk that passed validation);
	// MeanExecBatch and MaxExecBatch describe the executed batch sizes in
	// samples — the degree of kernel-level batching actually achieved.
	// MaxExecBatch ≤ MaxBatch.
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
	// latency percentiles — the wait for an executor plus the run — over a
	// sliding window of recent observations, one per Infer call or
	// InferBatch chunk (see LatencyRing — the one percentile implementation
	// the fleet layer shares).
	P50LatencyUS  float64
	P99LatencyUS  float64
	P999LatencyUS float64
	// QueueDepth, Workers, MaxBatch and Chips describe the engine's
	// current shape. QueueDepth counts calls waiting for an executor right
	// now; Workers is the pool size; Chips is the realized pipeline depth
	// of a sharded engine (1 when the model runs whole on private
	// executors).
	QueueDepth int
	Workers    int
	MaxBatch   int
	Chips      int
	UptimeS    float64
}

// String renders the snapshot.
func (s Stats) String() string {
	out := fmt.Sprintf("served %d requests (%d errors, %d shed) in %d batches (exec mean %.1f / max %d), throughput %.4g samples/s, latency p50 %.4g us / p99 %.4g us / p999 %.4g us, %d waiting, %d workers",
		s.Requests, s.Errors, s.Shed, s.ExecBatches, s.MeanExecBatch, s.MaxExecBatch,
		s.ThroughputSPS, s.P50LatencyUS, s.P99LatencyUS, s.P999LatencyUS, s.QueueDepth, s.Workers)
	if s.Chips > 1 {
		out += fmt.Sprintf(", %d pipelined chips", s.Chips)
	}
	if s.SparseKernels > 0 {
		out += fmt.Sprintf(", %d spiking-kernel calls (density %.3f)", s.SparseKernels, s.SpikeDensity)
	}
	if s.FaultedCells > 0 {
		out += fmt.Sprintf(", %d faulted cells", s.FaultedCells)
	}
	return out
}

// latencyWindow is the sliding sample window the percentiles are computed
// over.
const latencyWindow = 4096

// LatencyRing is the sliding-window latency recorder behind every
// percentile the serving stack reports: the engine's Stats, the fleet's
// per-model stats and the load-generator benches all record into one of
// these and read percentiles back through Percentile, so "p999" means
// the same computation everywhere. The zero value is ready to use; all
// methods are safe for concurrent use.
type LatencyRing struct {
	mu   sync.Mutex
	ring [latencyWindow]float64 // microseconds
	n    uint64                 // total recorded; ring index is n % latencyWindow
}

// Record adds one request latency to the window.
func (r *LatencyRing) Record(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	r.mu.Lock()
	r.ring[r.n%latencyWindow] = us
	r.n++
	r.mu.Unlock()
}

// Sorted returns the window's samples sorted ascending, ready for
// Percentile. Empty when nothing has been recorded.
func (r *LatencyRing) Sorted() []float64 {
	r.mu.Lock()
	n := r.n
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := append([]float64(nil), r.ring[:n]...)
	r.mu.Unlock()
	sort.Float64s(lat)
	return lat
}

// Percentiles reads the three serving percentiles (p50/p99/p999) the
// stats surfaces report, in microseconds. All zero when nothing has been
// recorded.
func (r *LatencyRing) Percentiles() (p50, p99, p999 float64) {
	lat := r.Sorted()
	if len(lat) == 0 {
		return 0, 0, 0
	}
	return Percentile(lat, 0.50), Percentile(lat, 0.99), Percentile(lat, 0.999)
}

// tracker accumulates engine statistics. Counters are atomic; the latency
// window is the shared LatencyRing.
type tracker struct {
	start       time.Time
	done        atomic.Uint64
	errors      atomic.Uint64
	shed        atomic.Uint64
	execBatches atomic.Uint64
	execItems   atomic.Uint64
	execMax     atomic.Int64

	lat LatencyRing
}

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

// recordDone records one settled chunk of n samples: the ring (and its
// mutex) is touched once per chunk, not once per sample.
func (t *tracker) recordDone(n int, d time.Duration) {
	t.done.Add(uint64(n))
	t.lat.Record(d)
}

func (t *tracker) snapshot() Stats {
	s := Stats{
		Requests: t.done.Load(),
		Errors:   t.errors.Load(),
		Shed:     t.shed.Load(),
	}
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

// Percentile reads the p-quantile from an ascending-sorted sample
// (nearest-rank). It is the one quantile implementation behind every
// latency percentile the serving stack reports — engine stats, fleet
// stats and the benches all call it, so their numbers are comparable.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
