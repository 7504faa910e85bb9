package fleet

import (
	"time"

	"fpsa/internal/serve"
)

// ModelStats is one model's serving snapshot, shaped for the /fleetz
// endpoint.
type ModelStats struct {
	// Requests counts completed inferences (successes and errors, not
	// sheds); Errors the subset that failed. Both count samples: a batch
	// call of n counts n.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// ShedOverload and ShedQuota count sheds by cause: class-weighted
	// model capacity versus per-tenant in-flight quota.
	ShedOverload uint64 `json:"shed_overload"`
	ShedQuota    uint64 `json:"shed_quota"`
	// Replicas and QueueDepth describe the current engine: its executor
	// count (the model's fixed pool size) and how many requests are
	// waiting for one right now; InFlight is the model's
	// admitted-but-uncompleted count.
	Replicas   int `json:"replicas"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// Version is the current bitstream generation (1 at registration,
	// +1 per swap); Window the sampling window Γ its engine quantizes
	// features against, reported only.
	Version int `json:"version"`
	Window  int `json:"window"`
	// ScaleUps and ScaleDowns are always 0: a model's pool never resizes.
	// They are not on the wire, and stay only for the benchmark's counters.
	ScaleUps   uint64 `json:"-"`
	ScaleDowns uint64 `json:"-"`
	// QPS is completed requests per second since the model was
	// registered; the latency percentiles are over every call since then,
	// one per call whatever its batch size, from its arrival at the engine
	// that ran it to completion: fleet admission is not in it. They merge
	// the retired engines' histograms and the live engine's (the one
	// serve.LatencyHistogram the engine stats use, within 1/64 of exact),
	// exact once a swap has returned.
	QPS           float64 `json:"qps"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	P999LatencyUS float64 `json:"p999_latency_us"`
}

// SwapEvent records one completed hot-swap: the version ids it moved
// between, the replica count of the replacement engine, when it started
// and how long it took from there to the old engine's close.
type SwapEvent struct {
	Model       string    `json:"model"`
	FromVersion int       `json:"from_version"`
	ToVersion   int       `json:"to_version"`
	Replicas    int       `json:"replicas"`
	At          time.Time `json:"at"`
	DurationMS  float64   `json:"duration_ms"`
}

// Stats is a point-in-time snapshot of the whole fleet: the chip pool,
// every model's counters, and the swap history. It is the payload of
// fpsa-serve's /fleetz endpoint.
type Stats struct {
	Chips     int                   `json:"chips"`
	ChipsUsed int                   `json:"chips_used"`
	Models    map[string]ModelStats `json:"models"`
	Swaps     []SwapEvent           `json:"swaps"`
}

// Stats snapshots every model's counters and the swap history.
func (f *Fleet) Stats() Stats {
	models := *f.models.Load()
	f.mu.Lock()
	s := Stats{
		Chips:     f.opts.Chips,
		ChipsUsed: f.chipsUsed,
		Models:    make(map[string]ModelStats, len(models)),
		Swaps:     append(make([]SwapEvent, 0, len(f.swaps)), f.swaps...), // never nil: "swaps":[] on the wire
	}
	f.mu.Unlock()
	for name, m := range models {
		s.Models[name] = m.snapshot()
	}
	return s
}

func (m *model) snapshot() ModelStats {
	v := m.cur.Load()
	st := ModelStats{
		Requests:     m.requests.Load(),
		Errors:       m.errors.Load(),
		ShedOverload: m.overload.Load(),
		ShedQuota:    m.quotaShed.Load(),
		Replicas:     m.cfg.Replicas,
		QueueDepth:   v.eng.QueueDepth(),
		InFlight:     int(m.inflight.Load()),
		Version:      v.id,
		Window:       v.window,
	}
	if up := time.Since(m.start).Seconds(); up > 0 {
		st.QPS = float64(st.Requests) / up
	}
	var lat serve.LatencyHistogram
	lat.Merge(&m.retired)
	v.eng.MergeLatency(&lat)
	st.P50LatencyUS, st.P99LatencyUS, st.P999LatencyUS = lat.Percentiles()
	return st
}
