package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// perfSnapshot builds a BENCH-style snapshot document for the gate.
// mutate edits the base document before it is serialized.
func perfSnapshot(t *testing.T, dir, name string, mutate func(doc map[string]any)) string {
	t.Helper()
	doc := map[string]any{
		"generated_by": "scripts/bench_snapshot.sh",
		"go":           "go1.24.4",
		"benchtime":    "0.2s",
		"benchcount":   3,
		"environment": map[string]any{
			"go": "go1.24.4", "goos": "linux", "goarch": "amd64",
			"gomaxprocs": 8, "cpu_model": "TestCPU v1", "kernel": "6.18.5",
		},
		"benchmarks": []map[string]any{
			{"package": "internal/match", "name": "BenchmarkMatchPair-8",
				"iterations": 1000, "ns_per_op": 50000.0, "bytes_per_op": 2048.0, "allocs_per_op": 30.0},
			{"package": "internal/serve", "name": "BenchmarkMatchSingle-8",
				"iterations": 500, "ns_per_op": 200000.0, "bytes_per_op": 8192.0, "allocs_per_op": 120.0},
			{"package": "internal/blocking", "name": "BenchmarkKeyLookup-8",
				"iterations": 100000, "ns_per_op": 40.0, "bytes_per_op": 0.0, "allocs_per_op": 0.0},
		},
		"count": 3,
		// pr8-pr10 carry this emload fold; the gate must not mind it.
		"serving_capacity": map[string]any{
			"generated_by": "emload", "mode": "capacity", "pass": true,
			"capacity": map[string]any{
				"p99_target_ms": 250.0, "step_duration_s": 4.0,
				"max_sustainable_qps": 512.0, "achieved_at_max_qps": 500.0, "p99_at_max_ms": 200.0,
			},
		},
	}
	if mutate != nil {
		mutate(doc)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// setNs rewrites one benchmark's ns_per_op in a snapshot document.
func setNs(doc map[string]any, name string, ns float64) {
	for _, b := range doc["benchmarks"].([]map[string]any) {
		if b["name"] == name {
			b["ns_per_op"] = ns
			return
		}
	}
	panic("no benchmark " + name)
}

// gate runs `emmonitor perf` through the program seam and returns the
// combined output and error.
func gate(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run(append([]string{"perf"}, args...), &out, &errOut)
	return out.String() + errOut.String(), err
}

func TestPerfGateHoldsOnIdenticalSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	new_ := perfSnapshot(t, dir, "new.json", nil)
	out, err := gate(t, old, new_)
	if err != nil {
		t.Fatalf("identical snapshots breached: %v\n%s", err, out)
	}
	if !strings.Contains(out, "gate holds") {
		t.Fatalf("no verdict line in output:\n%s", out)
	}
}

// TestPerfGateExactThreshold pins the epsilon semantics: a regression of
// exactly the fail threshold (20% with benchcount 3, so no slack)
// breaches, and one epsilon under it only warns.
func TestPerfGateExactThreshold(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)

	atBar := perfSnapshot(t, dir, "at.json", func(doc map[string]any) {
		setNs(doc, "BenchmarkMatchPair-8", 60000) // exactly +20%
	})
	out, err := gate(t, old, atBar)
	if !errors.Is(err, errBreach) {
		t.Fatalf("exact +20%% did not breach: err=%v\n%s", err, out)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "BenchmarkMatchPair-8") {
		t.Fatalf("breach output names no failing benchmark:\n%s", out)
	}

	underBar := perfSnapshot(t, dir, "under.json", func(doc map[string]any) {
		setNs(doc, "BenchmarkMatchPair-8", 59990) // +19.98%: warn only
	})
	out, err = gate(t, old, underBar)
	if err != nil {
		t.Fatalf("+19.98%% breached the default gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "WARN") {
		t.Fatalf("+19.98%% raised no warning:\n%s", out)
	}
}

// TestPerfGateNoiseSlack pins the min-of-N widening: the same +25%
// regression breaches against a 3-pass baseline but only warns when the
// new snapshot was a single pass (+10 points of slack → bar at 30%).
func TestPerfGateNoiseSlack(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	slow := func(doc map[string]any) { setNs(doc, "BenchmarkMatchPair-8", 62500) } // +25%

	threePass := perfSnapshot(t, dir, "new3.json", slow)
	if _, err := gate(t, old, threePass); !errors.Is(err, errBreach) {
		t.Fatalf("+25%% at benchcount 3 did not breach: err=%v", err)
	}

	onePass := perfSnapshot(t, dir, "new1.json", func(doc map[string]any) {
		slow(doc)
		doc["benchcount"] = 1
	})
	out, err := gate(t, old, onePass)
	if err != nil {
		t.Fatalf("+25%% at benchcount 1 breached despite slack: %v\n%s", err, out)
	}
	if !strings.Contains(out, "noise slack") {
		t.Fatalf("slack not announced:\n%s", out)
	}
}

// TestPerfGateNanobenchFloor: a huge relative regression on a benchmark
// under the ns floor is reported but never gated.
func TestPerfGateNanobenchFloor(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	new_ := perfSnapshot(t, dir, "new.json", func(doc map[string]any) {
		setNs(doc, "BenchmarkKeyLookup-8", 80) // +100% on a 40ns bench
	})
	out, err := gate(t, old, new_)
	if err != nil {
		t.Fatalf("nanobench doubled and the gate breached: %v\n%s", err, out)
	}
	if !strings.Contains(out, "gating floor") {
		t.Fatalf("floored regression not reported:\n%s", out)
	}
}

func TestPerfGateMissingAndAddedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	new_ := perfSnapshot(t, dir, "new.json", func(doc map[string]any) {
		benches := doc["benchmarks"].([]map[string]any)
		// Drop BenchmarkMatchPair, add a new one.
		kept := benches[1:]
		kept = append(kept, map[string]any{
			"package": "internal/contprof", "name": "BenchmarkCapture-8",
			"iterations": 100, "ns_per_op": 900000.0, "bytes_per_op": 4096.0, "allocs_per_op": 50.0,
		})
		doc["benchmarks"] = kept
	})
	out, err := gate(t, old, new_)
	if err != nil {
		t.Fatalf("missing benchmark breached the default gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "disappeared") || !strings.Contains(out, "BenchmarkMatchPair-8") {
		t.Fatalf("disappeared benchmark not warned:\n%s", out)
	}
	if !strings.Contains(out, "added benchmark") || !strings.Contains(out, "BenchmarkCapture-8") {
		t.Fatalf("added benchmark not noted:\n%s", out)
	}
}

// TestPerfGateIgnoresRetiredFolds: BENCH_pr10.json still carries the
// serving_capacity and serving_stream keys nothing has written since; it
// must load, and its benchmarks gate as any snapshot's do, whatever the
// folds say.
func TestPerfGateIgnoresRetiredFolds(t *testing.T) {
	pr10 := filepath.Join("..", "..", "BENCH_pr10.json")
	data, err := os.ReadFile(pr10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"serving_capacity"`)) {
		t.Fatalf("%s carries no serving_capacity key: the test needs a snapshot that does", pr10)
	}
	out, err := gate(t, pr10, pr10)
	if err != nil || !strings.Contains(out, "gate holds") || strings.Contains(out, "capacity") {
		t.Fatalf("pr10 against itself: %v\n%s", err, out)
	}

	// A collapsed capacity in the fold moves nothing; a slower benchmark
	// beside it still breaches.
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	collapsed := perfSnapshot(t, dir, "collapsed.json", func(doc map[string]any) {
		doc["serving_capacity"].(map[string]any)["capacity"].(map[string]any)["max_sustainable_qps"] = 1.0
	})
	if out, err := gate(t, old, collapsed); err != nil {
		t.Fatalf("the retired capacity fold was gated: %v\n%s", err, out)
	}
	slower := perfSnapshot(t, dir, "slower.json", func(doc map[string]any) {
		setNs(doc, "BenchmarkMatchPair-8", 65000) // +30%
	})
	if out, err := gate(t, old, slower); !errors.Is(err, errBreach) {
		t.Fatalf("+30%% beside a fold did not breach: err=%v\n%s", err, out)
	}
}

func TestPerfGateEnvironmentMismatch(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	otherBox := perfSnapshot(t, dir, "other.json", func(doc map[string]any) {
		doc["environment"].(map[string]any)["cpu_model"] = "OtherCPU v9"
	})

	// Mismatched environments refuse to compare: exit 2, not a breach.
	out, err := gate(t, old, otherBox)
	if err == nil || errors.Is(err, errBreach) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("env mismatch err = %v, want plain error\n%s", err, out)
	}
	if !strings.Contains(err.Error(), "different environments") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}

	// A snapshot predating the environment block compares with a note.
	legacy := perfSnapshot(t, dir, "legacy.json", func(doc map[string]any) {
		delete(doc, "environment")
	})
	out, err = gate(t, legacy, old)
	if err != nil {
		t.Fatalf("missing environment block failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "environment metadata missing") {
		t.Fatalf("missing env not noted:\n%s", out)
	}
}

func TestPerfGateMemoryRegression(t *testing.T) {
	dir := t.TempDir()
	old := perfSnapshot(t, dir, "old.json", nil)
	bloated := perfSnapshot(t, dir, "bloat.json", func(doc map[string]any) {
		for _, b := range doc["benchmarks"].([]map[string]any) {
			if b["name"] == "BenchmarkMatchSingle-8" {
				b["bytes_per_op"] = 16384.0 // +100% B/op
			}
		}
	})
	out, err := gate(t, old, bloated)
	if !errors.Is(err, errBreach) {
		t.Fatalf("doubled B/op did not breach: err=%v\n%s", err, out)
	}
	if !strings.Contains(out, "B/op") {
		t.Fatalf("B/op regression not named:\n%s", out)
	}
}

func TestPerfGateUsageErrors(t *testing.T) {
	if err := run([]string{"perf"}, new(bytes.Buffer), new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("no-arg perf err = %v, want ErrHelp", err)
	}
	// The bars are constants: a flag that used to move one is a usage error.
	if err := run([]string{"perf", "-fail", "0.5", "a.json", "b.json"}, new(bytes.Buffer), new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("perf -fail err = %v, want ErrHelp", err)
	}
	dir := t.TempDir()
	ok := perfSnapshot(t, dir, "ok.json", nil)
	if err := run([]string{"perf", ok, filepath.Join(dir, "absent.json")}, new(bytes.Buffer), new(bytes.Buffer)); err == nil || errors.Is(err, errBreach) {
		t.Fatalf("unreadable snapshot err = %v, want plain error", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"perf", ok, bad}, new(bytes.Buffer), new(bytes.Buffer)); err == nil || errors.Is(err, errBreach) {
		t.Fatalf("empty snapshot err = %v, want plain error", err)
	}
}
