package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// Row statuses.
const (
	statusOK = "ok"
	// statusUnresolved marks a host-time row whose segments spread wider
	// than its bound: the run cannot support a number for it.
	statusUnresolved = "unresolved"
)

// row is one measured metric. Host-time rows carry the median over the
// run's segments (or rounds, or set-ups) with quartiles and the sample
// count, at reference host speed, and beside it the median as the wall
// clock read it; exact rows carry the one value and N = 1.
type row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n"`
	Status string  `json:"status"`
	// Wall is the median of the samples before they were scaled to
	// reference host speed; 0 on a row that is not host time.
	Wall float64 `json:"wall,omitempty"`
}

// result is what one workload run produced.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Digest is the SHA-256 over the verification set's served outputs in
	// input order (for compile_zoo, over every design's compile facts).
	Digest string `json:"digest"`
	// Counts are deterministic facts of the run beyond the metrics, compared
	// exactly by -compare and the golden check.
	Counts map[string]int64 `json:"counts,omitempty"`
	Rows   []row            `json:"rows"`
	// Own holds per-layer facts only the workload's own loop can know (how
	// late its open loop ran, what its fleet shed and scaled); the traced
	// run reads them from here.
	Own map[string]float64 `json:"own,omitempty"`
	// Ladders holds the traced run's layer ladders, rung by rung, and
	// SpanTotals its spans summed by name.
	Ladders    []ladderRow `json:"ladders,omitempty"`
	SpanTotals []spanTotal `json:"span_totals,omitempty"`
	// Problems lists every check that failed; a clean run has none.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) row(name string) (row, bool) {
	for _, x := range r.Rows {
		if x.Name == name {
			return x, true
		}
	}
	return row{}, false
}

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// correct reports whether every check of the run passed.
func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// addHost appends a host-time row from its samples. The row is unresolved
// when the samples spread (interquartile distance over median) wider than
// the metric's bound.
func (r *result) addHost(m metricDef, bound float64, samples hostSamples) {
	s := summarize(samples.atReferenceSpeed())
	status := statusOK
	if s.N == 0 || s.iqrShare() > bound {
		status = statusUnresolved
	}
	r.Rows = append(r.Rows, row{Name: m.Name, Unit: m.Unit, Value: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.N, Status: status,
		Wall: summarize(samples.raw).Median})
}

// addValue appends a single-valued row (exact metrics, counts, and
// per-layer timings that are already a median).
func (r *result) addValue(m metricDef, v float64) {
	r.Rows = append(r.Rows, row{Name: m.Name, Unit: m.Unit, Value: v, N: 1, Status: statusOK})
}

// host is the fingerprint host-time rows are only comparable within.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	return host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
}

// report is the -out file: one host, one or more workload results.
type report struct {
	Schema  int      `json:"schema"`
	Host    host     `json:"host"`
	Results []result `json:"results"`
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printResult renders one workload's rows for a reader. Every metric of
// the run's kind is listed by name with its unit; one that is not defined
// on this workload reads n/a.
func printResult(w io.Writer, r *result) {
	kind, defs := "end-to-end", endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	fmt.Fprintf(w, "   %-34s %-7s %14s %14s %14s %4s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "status (wall = median as the wall clock read it)")
	for _, m := range defs {
		x, ok := r.row(m.Name)
		if !ok {
			fmt.Fprintf(w, "   %-34s %-7s %14s\n", m.Name, m.Unit, "n/a")
			continue
		}
		if x.Status == statusUnresolved {
			fmt.Fprintf(w, "   %-34s %-7s %14s %14.6g %14.6g %4d  %s (median %.6g)\n", x.Name, x.Unit, statusUnresolved, x.Q1, x.Q3, x.N, x.Status, x.Value)
			continue
		}
		if x.N > 1 {
			fmt.Fprintf(w, "   %-34s %-7s %14.6g %14.6g %14.6g %4d  %s  wall %.6g\n", x.Name, x.Unit, x.Value, x.Q1, x.Q3, x.N, x.Status, x.Wall)
		} else {
			fmt.Fprintf(w, "   %-34s %-7s %14.6g %14s %14s %4d  %s\n", x.Name, x.Unit, x.Value, "", "", x.N, x.Status)
		}
	}
	if len(r.Ladders) > 0 {
		fmt.Fprintf(w, "   layer ladders (self = cost over the rung below):\n")
		fmt.Fprintf(w, "   %-26s %-16s %5s %14s %14s %7s\n", "fixture", "rung", "batch", "us/sample", "self us/sample", "batches")
		for _, l := range r.Ladders {
			fmt.Fprintf(w, "   %-26s %-16s %5d %14.4g %14.4g %7d\n", l.Fixture, l.Rung, l.Batch, l.USPerSample, l.SelfUS, l.Batches)
		}
	}
	if len(r.SpanTotals) > 0 {
		fmt.Fprintf(w, "   spans by name (self = duration minus what the span's children cover):\n")
		fmt.Fprintf(w, "   %-34s %8s %14s %14s\n", "span", "spans", "total ms", "self ms")
		for _, s := range r.SpanTotals {
			fmt.Fprintf(w, "   %-34s %8d %14.3f %14.3f\n", s.Name, s.Spans, s.TotalMS, s.SelfMS)
		}
	}
	fmt.Fprintf(w, "   digest %s  attempted %d  failed %d\n", r.Digest, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
}

// driverLine is the last line of a run's standard output: the one JSON
// object the driver parses, holding exactly the metrics BENCHMARK.json
// lists for the run's kind.
func driverLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	add := func(m metricDef) {
		x, ok := r.row(m.Name)
		if !ok || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			x.Value = 0
		}
		metrics[m.Name] = value{Value: x.Value, Unit: m.Unit}
	}
	if r.Traced {
		for _, m := range perLayer {
			add(m)
		}
	} else {
		for _, name := range driverMetrics {
			m, _ := findMetric(endToEnd, name)
			add(m)
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	return string(line)
}
