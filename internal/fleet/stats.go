package fleet

import "time"

// ModelStats is one model's serving snapshot.
type ModelStats struct {
	// Requests counts completed inferences (successes and errors, not
	// sheds); Errors the subset that failed.
	Requests uint64
	Errors   uint64
	// Overload and Quota count sheds by cause: class-weighted model
	// capacity versus per-tenant in-flight quota.
	Overload uint64
	Quota    uint64
	// Replicas and QueueDepth describe the current pool: its size and
	// how many requests are waiting for a replica's executor right now,
	// summed over it; InFlight is the model's admitted-but-uncompleted
	// count.
	Replicas   int
	QueueDepth int
	InFlight   int
	// Version is the current bitstream generation (1 at registration,
	// +1 per swap); Window its input quantization window.
	Version int
	Window  int
	// ScaleUps and ScaleDowns count autoscaler pool moves.
	ScaleUps   uint64
	ScaleDowns uint64
	// QPS is completed requests per second since the model was
	// registered; the latency percentiles are over a sliding window of
	// recent requests (the same serve.LatencyRing the engine stats use).
	QPS           float64
	P50LatencyUS  float64
	P99LatencyUS  float64
	P999LatencyUS float64
}

// SwapEvent records one completed hot-swap.
type SwapEvent struct {
	Model    string
	From, To int // version ids
	Replicas int
	At       time.Time
	Duration time.Duration
}

// Stats is a point-in-time snapshot of the whole fleet.
type Stats struct {
	Chips     int
	ChipsUsed int
	Models    map[string]ModelStats
	Swaps     []SwapEvent
}

// Stats snapshots every model's counters and the swap history.
func (f *Fleet) Stats() Stats {
	f.mu.RLock()
	s := Stats{
		Chips:     f.opts.Chips,
		ChipsUsed: f.chipsUsed,
		Models:    make(map[string]ModelStats, len(f.models)),
		Swaps:     append([]SwapEvent(nil), f.swaps...),
	}
	models := make(map[string]*model, len(f.models))
	for name, m := range f.models {
		models[name] = m
	}
	f.mu.RUnlock()
	for name, m := range models {
		s.Models[name] = m.snapshot()
	}
	return s
}

func (m *model) snapshot() ModelStats {
	v := m.cur.Load()
	replicas, depth := v.count()
	st := ModelStats{
		Requests:   m.requests.Load(),
		Errors:     m.errors.Load(),
		Overload:   m.overload.Load(),
		Quota:      m.quotaShed.Load(),
		Replicas:   replicas,
		QueueDepth: depth,
		InFlight:   int(m.inflight.Load()),
		Version:    v.id,
		Window:     v.window,
		ScaleUps:   m.scaleUps.Load(),
		ScaleDowns: m.scaleDowns.Load(),
	}
	if up := time.Since(m.start).Seconds(); up > 0 {
		st.QPS = float64(st.Requests) / up
	}
	st.P50LatencyUS, st.P99LatencyUS, st.P999LatencyUS = m.lat.Percentiles()
	return st
}
