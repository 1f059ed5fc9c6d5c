//go:build smoke

package smoke

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeLoad holds emload's exit-code contract against live servers: a
// clean soak passes its gate (exit 0), a short capacity search — soak
// at rising rates — finds a sustainable rate, an undersized server trips
// the gate with exit exactly 1 naming the latency objective — a gate
// that cannot fail is not a gate.
func smokeLoad(t *testing.T) {
	dir := t.TempDir()
	emload := func(summary string, args ...string) (int, string, string) {
		path := filepath.Join(dir, summary)
		code, out := cli(t, "emload", append([]string{"-right", right, "-seed", dataSeed, "-summary", path}, args...)...)
		return code, out, readFile(t, path)
	}

	s := start(t, dir, "load_soak", nil)
	code, out, sum := emload("soak.json", "-mode", "soak", "-addr", s.Addr,
		"-profile", "poisson", "-rate", "40", "-duration", "6s", "-report-every", "2s",
		"-slo", "availability=99,latency=2s@99")
	wantCLI(t, "clean soak", code, out, 0, "eps=")
	wantFragments(t, "soak summary", sum, `"pass": true`, `"gate"`)

	code, out, sum = emload("capacity.json", "-mode", "capacity", "-addr", s.Addr,
		"-rate", "4", "-max-qps", "16", "-factor", "2", "-duration", "2s",
		"-slo", "availability=99,latency=5s@99", "-report-every", "0")
	wantCLI(t, "capacity search", code, out, 0, "max sustainable rate")
	wantFragments(t, "capacity summary", sum, `"max_sustainable_qps"`)
	if strings.Contains(sum, `"max_sustainable_qps": 0,`) {
		t.Errorf("capacity search found no sustainable rate:\n%s", sum)
	}
	s.drain(t)

	s = start(t, dir, "load_slow", nil, "-inject", "serve.match:mode=sleep,sleep=300ms")
	code, out, sum = emload("trip.json", "-mode", "soak", "-addr", s.Addr,
		"-profile", "uniform", "-rate", "5", "-duration", "5s", "-report-every", "0",
		"-slo", "availability=99,latency=100ms@99")
	wantCLI(t, "soak of a 300ms server under a 100ms p99 objective", code, out, 1)
	wantFragments(t, "tripped summary", sum, `"pass": false`)
	if !regexp.MustCompile(`gate latency.*BREACH`).MatchString(out) {
		t.Errorf("the tripped gate did not name the latency objective:\n%s", out)
	}
	s.drain(t)
}

// smokeMonitor holds the quality-monitoring loop's exit codes: every run
// is a drift capture, the first one's report is the baseline, the
// identical slice scores zero drift (`emmonitor check` exit 0, verdict
// ok), a slice with AwardNumber nulled on half its rows trips the gates
// (exit 1, verdict fail) without failing the run itself, and diff
// compares the two checked runs' reports. Each run's record is its
// -report file, runN.json beside runN.csv, and the loop writes nothing
// else.
func smokeMonitor(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "run1.json")
	emmatch := func(rightCSV, run string) {
		code, log := cli(t, "emmatch", "-spec", spec, "-left", left, "-right", rightCSV, "-drift-capture",
			"-out", filepath.Join(dir, run+".csv"), "-report", filepath.Join(dir, run+".json"))
		wantCLI(t, "emmatch -> "+run, code, log, 0)
	}
	check := func(run string) (int, string) {
		return cli(t, "emmonitor", "check", "-baseline", baseline, "-run", filepath.Join(dir, run+".json"))
	}

	emmatch(right, "run1")
	emmatch(right, "run2")
	if readFile(t, filepath.Join(dir, "run1.csv")) != readFile(t, filepath.Join(dir, "run2.csv")) {
		t.Error("identical inputs produced different matches")
	}
	code, out := check("run2")
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
	emmatch(perturbed, "run3")
	code, out = check("run3")
	wantCLI(t, "check on the perturbed slice", code, out, 1, "verdict fail")

	code, out = cli(t, "emmonitor", "diff", filepath.Join(dir, "run2.json"), filepath.Join(dir, "run3.json"))
	wantCLI(t, "emmonitor diff", code, out, 0, "stage wall time", "span items")

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "USDAPerturbed.csv run1.csv run1.json run2.csv run2.json run3.csv run3.json"; got != want {
		t.Errorf("the monitoring loop left %s, want %s", got, want)
	}
}
