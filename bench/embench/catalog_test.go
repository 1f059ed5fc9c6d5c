package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []fileWorkload  `json:"workloads"`
	EndToEnd   []fileMetric    `json:"end_to_end"`
	PerLayer   []fileLayerItem `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileLayerItem struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesCatalog keeps the root BENCHMARK.json and the
// harness's catalogue one list: on a mismatch it prints the file the
// catalogue implies.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		want.Workloads = append(want.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		want.EndToEnd = append(want.EndToEnd, fileMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, fileLayerItem{m.Name, m.Unit, m.Better})
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v: duplicate, over-long, or bad direction", m)
		}
		seen[m.Name] = true
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("BENCHMARK.json differs from the catalogue; it should read:\n%s", wantJSON)
	}
}
