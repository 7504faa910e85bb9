package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of a -compare row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	// verdictRefused marks a host-time row of two reports whose hosts differ
	// in core count: wall clock is not comparable across them.
	verdictRefused = "refused"
)

// hostVerdict judges one host-time row. worse is the share by which the
// change's median is worse than the parent's (negative when better).
//
//   - unresolved: either run could not support the number (its segments
//     spread wider than the bound);
//   - regressed: worse by more than the bound;
//   - improved: better by more than either run's own interquartile spread;
//   - unchanged otherwise.
func hostVerdict(m metricDef, bound float64, a, b row) (verdict string, worse float64) {
	if a.Value == 0 {
		return verdictUnresolved, 0
	}
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Name != "setup_s" && (a.Status != statusOK || b.Status != statusOK) {
		return verdictUnresolved, worse
	}
	// A row with too few samples for quartiles cannot support a claimed
	// gain.
	spread := func(x row) float64 {
		if x.N < 4 || x.Value == 0 {
			return math.Inf(1)
		}
		return math.Abs(x.Q3-x.Q1) / math.Abs(x.Value)
	}
	switch {
	case worse > bound:
		return verdictRegressed, worse
	case worse < 0 && -worse > math.Max(spread(a), spread(b)):
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// exactVerdict judges a row that must repeat bit for bit.
func exactVerdict(m metricDef, a, b row) string {
	switch {
	case a.Value == b.Value:
		return verdictUnchanged
	case (b.Value > a.Value) == (m.Better == "higher"):
		return verdictImproved
	}
	return verdictRegressed
}

// compareFiles applies the bounds row by row to two -out reports, parent
// first, and reports whether any row regressed.
func compareFiles(w io.Writer, bf *benchmarkFile, parentPath, changePath string) (regressed bool, err error) {
	parent, err := readReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	return compareReports(w, bf, parent, change), nil
}

func compareReports(w io.Writer, bf *benchmarkFile, parent, change report) (regressed bool) {
	sameCores := parent.Host.GOMAXPROCS == change.Host.GOMAXPROCS && parent.Host.NumCPU == change.Host.NumCPU
	fmt.Fprintf(w, "parent host: %+v\nchange host: %+v\n", parent.Host, change.Host)
	if !sameCores {
		fmt.Fprintln(w, "hosts differ in core count: host-time rows are refused; exact rows are still compared")
	}
	fmt.Fprintf(w, "%-26s %-34s %14s %14s %9s  %s\n", "workload", "metric", "parent", "change", "worse by", "verdict")
	for _, a := range parent.Results {
		var b *result
		for i := range change.Results {
			if change.Results[i].Workload == a.Workload && change.Results[i].Traced == a.Traced {
				b = &change.Results[i]
			}
		}
		if b == nil {
			fmt.Fprintf(w, "%-26s missing from the change's report\n", a.Workload)
			regressed = true
			continue
		}
		defs := endToEnd
		if a.Traced {
			defs = perLayer
		}
		for _, m := range defs {
			ra, okA := a.row(m.Name)
			rb, okB := b.row(m.Name)
			if !okA && !okB {
				continue
			}
			verdict, worse := "", 0.0
			switch {
			case okA != okB:
				verdict = verdictRegressed
			case m.Exact:
				verdict = exactVerdict(m, ra, rb)
			case !sameCores:
				verdict = verdictRefused
			case a.Traced:
				// Per-layer timings have no bound; they explain, they do
				// not gate.
				_, worse = hostVerdict(m, math.Inf(1), ra, rb)
				verdict = "-"
			default:
				verdict, worse = hostVerdict(m, bf.boundFor(m), ra, rb)
			}
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-26s %-34s %14.6g %14.6g %+8.1f%%  %s\n", a.Workload, m.Name, ra.Value, rb.Value, 100*worse, verdict)
		}
		if !a.Traced {
			verdict := verdictUnchanged
			if a.Digest != b.Digest || a.Seed != b.Seed {
				verdict = verdictRegressed
				if a.Seed != b.Seed {
					verdict = verdictRefused + " (seeds differ)"
				} else {
					regressed = true
				}
			}
			fmt.Fprintf(w, "%-26s %-34s %14.12s %14.12s %9s  %s\n", a.Workload, "digest", a.Digest, b.Digest, "", verdict)
			for _, name := range sortedKeys(a.Counts) {
				v := a.Counts[name]
				verdict := verdictUnchanged
				if b.Counts[name] != v {
					verdict, regressed = verdictRegressed, true
				}
				fmt.Fprintf(w, "%-26s %-34s %14d %14d %9s  %s\n", a.Workload, "count "+name, v, b.Counts[name], "", verdict)
			}
		}
	}
	return regressed
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
