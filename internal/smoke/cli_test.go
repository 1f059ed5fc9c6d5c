//go:build smoke

package smoke

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeLoad holds emload's exit-code contract against live servers: a
// clean soak passes its gate (exit 0), a short capacity search finds a
// sustainable rate, an undersized server trips the gate with exit
// exactly 1 naming the latency objective — a gate that cannot fail is
// not a gate — and the supervised chaos-soak (breaker trip and re-close,
// SIGKILL at a shard boundary mid-load, byte-identical resume) passes.
func smokeLoad(t *testing.T) {
	dir := t.TempDir()
	emload := func(summary string, args ...string) (int, string, string) {
		path := filepath.Join(dir, summary)
		code, out := cli(t, "emload", append([]string{"-right", right, "-seed", dataSeed, "-summary", path}, args...)...)
		return code, out, readFile(t, path)
	}

	s := start(t, dir, "load_soak", "", nil, "-slo", "availability=99")
	code, out, sum := emload("soak.json", "-mode", "soak", "-addr", s.Addr,
		"-profile", "poisson", "-rate", "40", "-duration", "6s", "-report-every", "2s",
		"-shed-retries", "1", "-max-retry-after", "500ms", "-slo", "availability=99,latency=2s@99")
	wantCLI(t, "clean soak", code, out, 0, "eps=")
	wantFragments(t, "soak summary", sum, `"pass": true`, `"gate"`)

	code, out, sum = emload("capacity.json", "-mode", "capacity", "-addr", s.Addr,
		"-start-qps", "4", "-max-qps", "16", "-factor", "2", "-step-duration", "2s",
		"-p99-target", "5000", "-report-every", "0")
	wantCLI(t, "capacity search", code, out, 0, "max sustainable rate")
	wantFragments(t, "capacity summary", sum, `"max_sustainable_qps"`)
	if strings.Contains(sum, `"max_sustainable_qps": 0,`) {
		t.Errorf("capacity search found no sustainable rate:\n%s", sum)
	}
	s.drain(t)

	s = start(t, dir, "load_slow", "", nil, "-inject", "serve.match:mode=sleep,sleep=300ms")
	code, out, sum = emload("trip.json", "-mode", "soak", "-addr", s.Addr,
		"-profile", "uniform", "-rate", "5", "-duration", "5s", "-report-every", "0",
		"-slo", "availability=99,latency=100ms@99")
	wantCLI(t, "soak of a 300ms server under a 100ms p99 objective", code, out, 1)
	wantFragments(t, "tripped summary", sum, `"pass": false`)
	if !regexp.MustCompile(`gate latency.*BREACH`).MatchString(out) {
		t.Errorf("the tripped gate did not name the latency objective:\n%s", out)
	}
	s.drain(t)

	chaos := filepath.Join(dir, "chaos")
	if err := os.Mkdir(chaos, 0o755); err != nil {
		t.Fatal(err)
	}
	code, out, sum = emload("chaos.json", "-mode", "chaos", "-server-bin", bin("emserve"), "-workdir", chaos,
		"-rate", "20", "-duration", "6s", "-report-every", "2s", "--",
		"-spec", spec, "-left", left, "-right", right, "-matcher", matcher, "-job-workers", "1")
	wantCLI(t, "chaos-soak", code, out, 0)
	wantFragments(t, "chaos summary", sum, `"pass": true`, `"byte_identical": true`, `"breaker_reclosed": true`,
		`"killed": true`, `"drain_clean": true`, `"shed_missing_retry_after": 0`)
	logs, _ := filepath.Glob(filepath.Join(chaos, "*.err"))
	for _, log := range logs {
		if strings.Contains(readFile(t, log), "WARNING: DATA RACE") {
			t.Errorf("the race detector fired in %s", log)
		}
	}
	if len(logs) == 0 {
		t.Error("the chaos-soak left no server logs to check for races")
	}
}

// smokeMonitor holds the quality-monitoring loop's exit codes: a
// drift-capture run persists a baseline, the identical slice scores zero
// drift (`emmonitor check` exit 0, verdict ok), a slice with AwardNumber
// nulled on half its rows trips the gates (exit 1, verdict fail) without
// failing the run itself, and history/diff answer over the three runs.
func smokeMonitor(t *testing.T) {
	dir := t.TempDir()
	hist, baseline := filepath.Join(dir, "hist"), filepath.Join(dir, "baseline.json")
	emmatch := func(rightCSV, out string, drift ...string) string {
		args := append([]string{"-spec", spec, "-left", left, "-history", hist, "-right", rightCSV, "-out", filepath.Join(dir, out)}, drift...)
		code, log := cli(t, "emmatch", args...)
		wantCLI(t, "emmatch -> "+out, code, log, 0)
		return log
	}
	check := func() (int, string) {
		return cli(t, "emmonitor", "check", "-baseline", baseline, "-dir", hist)
	}

	emmatch(right, "run1.csv", "-drift-capture", baseline)
	if readFile(t, baseline) == "" {
		t.Fatal("the capture run persisted no baseline")
	}
	emmatch(right, "run2.csv", "-drift-baseline", baseline)
	if readFile(t, filepath.Join(dir, "run1.csv")) != readFile(t, filepath.Join(dir, "run2.csv")) {
		t.Error("identical inputs produced different matches")
	}
	code, out := check()
	wantCLI(t, "check on the identical slice", code, out, 0, "verdict ok")

	perturbed := filepath.Join(dir, "USDAPerturbed.csv")
	rows, err := csv.NewReader(strings.NewReader(readFile(t, right))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, name := range rows[0] {
		if name == "AwardNumber" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no AwardNumber column in %v", rows[0])
	}
	for i := 1; i < len(rows); i += 2 {
		rows[i][col] = ""
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(perturbed, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFragments(t, "perturbed run log", emmatch(perturbed, "run3.csv", "-drift-baseline", baseline), "quality verdict fail")
	code, out = check()
	wantCLI(t, "check on the perturbed slice", code, out, 1, "verdict fail")

	code, out = cli(t, "emmonitor", "history", "-dir", hist)
	wantCLI(t, "emmonitor history", code, out, 0)
	listed := strings.Split(strings.TrimSpace(out), "\n")
	if len(listed) != 4 || !strings.Contains(listed[len(listed)-1], "fail") {
		t.Errorf("history must list a header and 3 runs, the last carrying the fail verdict:\n%s", out)
	}
	runs := strings.Split(strings.TrimSpace(readFile(t, filepath.Join(hist, "runs.jsonl"))), "\n")
	if len(runs) != 3 {
		t.Fatalf("runs.jsonl holds %d runs, want 3", len(runs))
	}
	var sides []string
	for i, run := range runs[1:] {
		side := filepath.Join(dir, fmt.Sprintf("side%d.jsonl", i))
		if err := os.WriteFile(side, []byte(run+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		sides = append(sides, side)
	}
	code, out = cli(t, "emmonitor", append([]string{"diff"}, sides...)...)
	wantCLI(t, "emmonitor diff", code, out, 0, "quality signals")
}
