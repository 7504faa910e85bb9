package main

import (
	"bytes"
	"strings"
	"testing"
)

func hostRow(name string, v, q1, q3 float64) row {
	return row{Name: name, Unit: "x", Value: v, Q1: q1, Q3: q3, N: 10, Status: statusOK}
}

func TestHostVerdicts(t *testing.T) {
	thr := metricDef{Name: "throughput_sps", Better: "higher"}
	lat := metricDef{Name: "p50_ms", Better: "lower"}
	unresolved := hostRow("throughput_sps", 100, 60, 140)
	unresolved.Status = statusUnresolved
	for _, c := range []struct {
		name string
		m    metricDef
		a, b row
		want string
	}{
		{"higher is better, 20% lower", thr, hostRow("", 100, 99, 101), hostRow("", 80, 79, 81), verdictRegressed},
		{"higher is better, 5% lower is inside the bound", thr, hostRow("", 100, 99, 101), hostRow("", 95, 94, 96), verdictUnchanged},
		{"higher is better, 20% higher and beyond the spread", thr, hostRow("", 100, 99, 101), hostRow("", 120, 119, 121), verdictImproved},
		{"better, but by less than the runs' own spread", thr, hostRow("", 100, 95, 105), hostRow("", 104, 99, 109), verdictUnchanged},
		{"lower is better, 20% higher", lat, hostRow("", 10, 9.9, 10.1), hostRow("", 12, 11.9, 12.1), verdictRegressed},
		{"lower is better, 20% lower", lat, hostRow("", 10, 9.9, 10.1), hostRow("", 8, 7.9, 8.1), verdictImproved},
		{"a run that could not support its number", thr, unresolved, hostRow("", 100, 99, 101), verdictUnresolved},
	} {
		if got, _ := hostVerdict(c.m, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func syntheticReport(thr, simUS float64, digest string, cores int) report {
	return report{Schema: 1, Host: host{GOMAXPROCS: cores, NumCPU: cores, GOARCH: "amd64", GoVersion: "go1.24"}, Results: []result{{
		Workload: wlConv, Seed: 1, Digest: digest, Counts: map[string]int64{"swaps": 2},
		Rows: []row{
			hostRow("throughput_sps", thr, thr*0.99, thr*1.01),
			{Name: "sim_latency_us", Unit: "sim_us", Value: simUS, N: 1, Status: statusOK},
		},
	}}}
}

func TestCompareReports(t *testing.T) {
	parent := syntheticReport(100, 67.2, "aa", 2)
	for _, c := range []struct {
		name      string
		change    report
		regressed bool
		wantLine  string
	}{
		{"same", syntheticReport(101, 67.2, "aa", 2), false, "unchanged"},
		{"slower beyond the bound", syntheticReport(60, 67.2, "aa", 2), true, "regressed"},
		{"simulated clock moved by one digit", syntheticReport(100, 67.20001, "aa", 2), true, "sim_latency_us"},
		{"digest changed", syntheticReport(100, 67.2, "bb", 2), true, "digest"},
		{"other core count: wall clock refused, exact rows compared", syntheticReport(10, 67.2, "aa", 8), false, "refused"},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, nil, parent, c.change); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), c.wantLine) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.wantLine, out.String())
		}
	}
	var out bytes.Buffer
	if !compareReports(&out, nil, parent, report{Host: parent.Host}) {
		t.Error("a workload missing from the change's report must count as regressed")
	}
}
