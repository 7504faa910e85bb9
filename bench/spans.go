package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// this directory only, around the calls into each layer; the program
// itself carries none yet. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	// Req groups the spans of one request (or one ladder batch).
	Req   int   `json:"req,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Items is how many samples the interval covered, so a reader can
	// turn durations into per-sample costs.
	Items int `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs switch tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req, items int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, Items: items})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON, creating the directory if needed.
func (t *tracer) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (parallel work) and may stick out of the parent; only the union
// of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// sumByName adds up durations (and item counts) of the spans with a name.
func sumByName(spans []span, name string) (ns int64, items, n int) {
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
			items += s.Items
			n++
		}
	}
	return ns, items, n
}

// spanTotal sums the spans of one name: how many there were, how long
// they lasted together and how much of that was their own.
type spanTotal struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// spanTotals groups spans by name, in order of first appearance.
func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	index := make(map[string]int)
	var totals []spanTotal
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(totals)
			index[s.Name] = i
			totals = append(totals, spanTotal{Name: s.Name})
		}
		totals[i].Spans++
		totals[i].TotalMS += float64(s.End-s.Start) / 1e6
		totals[i].SelfMS += float64(self[s.ID]) / 1e6
	}
	return totals
}
