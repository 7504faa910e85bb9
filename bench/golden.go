package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// goldenFile pins what must repeat bit for bit. Digests and counts depend
// on the inputs and so are recorded for one seed; the simulated-hardware
// values do not depend on the seed and are checked on every run. Integer
// outputs are the same on every architecture, but the float reference
// behind ref_agreement may round differently, so the file records the
// GOARCH it was made on and that row is only checked there.
type goldenFile struct {
	Seed      int64                  `json:"seed"`
	GOARCH    string                 `json:"goarch"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	Digest       string           `json:"digest"`
	SimLatencyUS float64          `json:"sim_latency_us"`
	SimEnergyUJ  float64          `json:"sim_energy_uj"`
	RefAgreement float64          `json:"ref_agreement"`
	Counts       map[string]int64 `json:"counts,omitempty"`
	// Layers holds the traced run's exact per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// goldenPath is bench/golden.json beside BENCHMARK.json, whether the
// command runs from the repository root (the driver, go run ./bench) or
// from inside bench/ (go test).
func goldenPath() string {
	return filepath.Join(filepath.Dir(benchmarkPath()), "bench", "golden.json")
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func rowValue(r *result, name string) float64 {
	x, _ := r.row(name)
	return x.Value
}

// checkGolden compares a result with the golden file and records every
// difference as a problem of the run.
func checkGolden(g *goldenFile, r *result) {
	want, ok := g.Workloads[r.Workload]
	if !ok {
		r.problemf("golden file has no entry for %s", r.Workload)
		return
	}
	sameSeed := r.Seed == g.Seed
	if r.Traced {
		if !sameSeed {
			return
		}
		for _, def := range perLayer {
			if !def.Exact {
				continue
			}
			if got, want := rowValue(r, def.Name), want.Layers[def.Name]; got != want {
				r.problemf("%s = %v, golden %v", def.Name, got, want)
			}
		}
		return
	}
	if got := rowValue(r, "sim_latency_us"); got != want.SimLatencyUS {
		r.problemf("sim_latency_us = %v, golden %v", got, want.SimLatencyUS)
	}
	if got := rowValue(r, "sim_energy_uj"); got != want.SimEnergyUJ {
		r.problemf("sim_energy_uj = %v, golden %v", got, want.SimEnergyUJ)
	}
	// compile_zoo's designs and placement seed are fixed, so its digest
	// holds for every seed.
	if !sameSeed && r.Workload != wlCompile {
		return
	}
	if r.Digest != want.Digest {
		r.problemf("digest %s, golden %s", r.Digest, want.Digest)
	}
	for name, v := range want.Counts {
		if r.Counts[name] != v {
			r.problemf("count %s = %d, golden %d", name, r.Counts[name], v)
		}
	}
	if _, has := r.row("ref_agreement"); has && sameSeed && runtime.GOARCH == g.GOARCH {
		if got := rowValue(r, "ref_agreement"); got != want.RefAgreement {
			r.problemf("ref_agreement = %v, golden %v", got, want.RefAgreement)
		}
	}
}

// updateGolden folds results into the golden file (-update-golden).
func updateGolden(path string, results []*result) error {
	g, err := loadGolden(path)
	if err != nil {
		g = &goldenFile{Workloads: make(map[string]goldenEntry)}
	}
	g.GOARCH = runtime.GOARCH
	for _, r := range results {
		g.Seed = r.Seed
		e := g.Workloads[r.Workload]
		if r.Traced {
			e.Layers = make(map[string]float64)
			for _, def := range perLayer {
				if def.Exact {
					e.Layers[def.Name] = rowValue(r, def.Name)
				}
			}
		} else {
			e.Digest, e.Counts = r.Digest, r.Counts
			e.SimLatencyUS, e.SimEnergyUJ = rowValue(r, "sim_latency_us"), rowValue(r, "sim_energy_uj")
			e.RefAgreement = rowValue(r, "ref_agreement")
		}
		g.Workloads[r.Workload] = e
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
