package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testSizes shrinks every table to a tenth (a fifth for the 2x slice) of
// the paper's, so the whole file runs in a few seconds.
var testSizes = sizes{train: 0.1, online: 0.1, deploy: 0.2, study: 0.1, warmStudy: 0.1}

func testRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(context.Background(), runConfig{
		workload: workload, seed: seed, dataSeed: 41, seconds: 2, trace: trace,
		sizes: testSizes, setupReps: 2, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !rep.Correct {
		t.Fatalf("%s seed %d: %d of %d failed: %v", workload, seed, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// The same seed must give identical quality, counts and digest; another
// seed different inputs (row order) under the same metric names — and,
// the record content being fixed, the same quality.
func TestSameSeedRepeatsOtherSeedReorders(t *testing.T) {
	a := testRun(t, "online_batch", 7, false)
	b := testRun(t, "online_batch", 7, false)
	c := testRun(t, "online_batch", 8, false)
	for _, name := range []string{"f1", "precision", "recall"} {
		if a.EndToEnd[name] != b.EndToEnd[name] || a.EndToEnd[name] != c.EndToEnd[name] {
			t.Errorf("%s: %v, %v (same seed), %v (other seed)", name, a.EndToEnd[name], b.EndToEnd[name], c.EndToEnd[name])
		}
	}
	if a.Digest != b.Digest || a.Attempted != b.Attempted || a.Confusion != b.Confusion {
		t.Errorf("same seed: digest %s/%s attempted %d/%d confusion %s/%s", a.Digest, b.Digest, a.Attempted, b.Attempted, a.Confusion, b.Confusion)
	}
	if a.Digest != c.Digest {
		t.Errorf("the digest is over business keys and must not depend on row order: %s vs %s", a.Digest, c.Digest)
	}
	if d := math.Abs(a.EndToEnd["allocs_per_record"]/b.EndToEnd["allocs_per_record"] - 1); d > 0.02 {
		t.Errorf("allocs_per_record moved %.1f%% between two runs of one seed", 100*d)
	}
	if !reflect.DeepEqual(keys(a.EndToEnd), keys(c.EndToEnd)) {
		t.Errorf("metric names differ between seeds: %v vs %v", keys(a.EndToEnd), keys(c.EndToEnd))
	}

	s7, err := buildSlice(0.1, 41, 7)
	if err != nil {
		t.Fatal(err)
	}
	s7again, _ := buildSlice(0.1, 41, 7)
	s8, _ := buildSlice(0.1, 41, 8)
	if !reflect.DeepEqual(s7.leftID, s7again.leftID) || !reflect.DeepEqual(s7.rightID, s7again.rightID) {
		t.Error("same seed gave different inputs")
	}
	if reflect.DeepEqual(s7.leftID, s8.leftID) || reflect.DeepEqual(s7.rightID, s8.rightID) {
		t.Error("another seed gave the same row order")
	}
	sorted := func(xs []string) []string { ys := append([]string(nil), xs...); sort.Strings(ys); return ys }
	if !reflect.DeepEqual(sorted(s7.leftID), sorted(s8.leftID)) {
		t.Error("another seed changed the record content, not just its order")
	}
}

// Every workload, traced: correct, every catalogued metric present, and
// a trace file whose spans nest.
func TestEveryWorkloadTraced(t *testing.T) {
	for _, w := range workloads {
		rep := testRun(t, w.Name, 3, true)
		for _, d := range endToEnd {
			if v, ok := rep.EndToEnd[d.Name]; !ok || v <= 0 || math.IsNaN(v) {
				t.Errorf("%s: end-to-end %s = %v (present %v); must be > 0", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := rep.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		if len(rep.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, catalogue has %d", w.Name, len(rep.PerLayer), len(perLayer))
		}
		if rep.PerLayer["workflow.run_s"] <= 0 || rep.PerLayer["block.candidates"] <= 0 {
			t.Errorf("%s: the ladder did not run: %v", w.Name, rep.PerLayer)
		}
		data, err := os.ReadFile(rep.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		for _, s := range tf.Spans {
			if s.EndUS < s.StartUS || s.Parent >= s.ID {
				t.Errorf("%s: span %+v ends before it starts or follows its child", w.Name, s)
			}
		}
	}
}

func TestEmitPrintsTheContractLineLast(t *testing.T) {
	rep := &report{Correct: true, Attempted: 10, EndToEnd: map[string]float64{"f1": 0.5}, PerLayer: map[string]float64{"rules.sure_s": 2}}
	for _, traced := range []bool{false, true} {
		rep.Traced = traced
		var buf bytes.Buffer
		if err := emit(&buf, rep); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		var names []string
		for k := range last {
			names = append(names, k)
		}
		sort.Strings(names)
		if !reflect.DeepEqual(names, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("contract line keys %v", names)
		}
		var metrics map[string]metricValue
		json.Unmarshal(last["metrics"], &metrics) //nolint:errcheck // checked by the length below
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(metrics), len(want))
		}
		for _, d := range want {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-list"}, &out, &errb); code != 0 || !strings.Contains(out.String(), "deploy_x2") || !strings.Contains(out.String(), "block.probe_ms_per_request") {
		t.Errorf("-list: exit %d, output %q", code, out.String())
	}
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "deploy_x2", "-trace", "2"}, {"-bogus"}} {
		if code := realMain(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
