package main

import (
	"reflect"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what this program measures. They must say the same thing.
func TestBenchmarkFileMatchesTheMetricTables(t *testing.T) {
	bf, err := loadBenchmarkFile(benchmarkPath())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}

	listed := make(map[string]bool)
	for _, e := range bf.EndToEnd {
		listed[e.Name] = true
		m, ok := findMetric(endToEnd, e.Name)
		switch {
		case !ok:
			t.Errorf("end-to-end metric %s is not in the table", e.Name)
		case m.Exact || m.Workloads != nil:
			t.Errorf("end-to-end metric %s: the driver needs a host-time metric defined on every workload", e.Name)
		case e.Unit != m.Unit || e.Better != m.Better || e.Bound == nil || *e.Bound != m.Bound:
			t.Errorf("end-to-end metric %s: file says %s %s %v, table says %s %s %v", e.Name, e.Unit, e.Better, e.Bound, m.Unit, m.Better, m.Bound)
		}
	}
	for _, name := range driverMetrics {
		if !listed[name] {
			t.Errorf("end-to-end metric %s is printed for the driver but not listed", name)
		}
	}
	if len(bf.EndToEnd) != len(driverMetrics) {
		t.Errorf("%d end-to-end metrics listed, %d printed", len(bf.EndToEnd), len(driverMetrics))
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d in the table", len(bf.PerLayer), len(perLayer))
	}
	for i, e := range bf.PerLayer {
		m := perLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != nil {
			t.Errorf("per-layer metric %d: file says %+v, table says %s %s %s", i, e, m.Name, m.Unit, m.Better)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}
