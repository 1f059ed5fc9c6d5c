package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/cliutil"
	"emgo/internal/load"
)

// Argument errors exit 2 without touching the network; these pin the
// CLI contract the smoke harness (internal/smoke) relies on.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"unknown mode", []string{"-mode", "stress", "-addr", "x"}, "want soak|capacity"},
		{"mode run is gone", []string{"-mode", "run", "-addr", "x"}, `unknown mode "run"`},
		{"soak needs addr", []string{"-mode", "soak"}, "-addr is required"},
		{"capacity needs addr", []string{"-mode", "capacity"}, "-addr is required"},
		// What chaos mode needed is moot: the mode is gone.
		{"chaos needs server-bin", []string{"-mode", "chaos"}, `unknown mode "chaos"`},
		{"bad blend", []string{"-addr", "x", "-blend", "single=oops"}, "blend"},
		{"bad slo", []string{"-mode", "soak", "-addr", "x", "-slo", "latency=banana"}, "-slo"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"start-qps is gone", []string{"-mode", "capacity", "-addr", "x", "-start-qps", "5"}, "flag provided but not defined: -start-qps"},
		{"step-duration is gone", []string{"-mode", "capacity", "-addr", "x", "-step-duration", "10s"}, "flag provided but not defined: -step-duration"},
		{"p99-target is gone", []string{"-mode", "capacity", "-addr", "x", "-p99-target", "500"}, "flag provided but not defined: -p99-target"},
		{"server-bin is gone", []string{"-addr", "x", "-server-bin", "./emserve"}, "flag provided but not defined: -server-bin"},
		{"workdir is gone", []string{"-addr", "x", "-workdir", "w"}, "flag provided but not defined: -workdir"},
		{"shard-size is gone", []string{"-addr", "x", "-shard-size", "4"}, "flag provided but not defined: -shard-size"},
		{"job-timeout is gone", []string{"-addr", "x", "-job-timeout", "2m"}, "flag provided but not defined: -job-timeout"},
		{"job kind is gone", []string{"-addr", "x", "-blend", "single=8,job=2"}, `unknown kind "job"`},
		{"blend kind twice", []string{"-addr", "x", "-blend", "single=80,single=0"}, `duplicate kind "single"`},
		{"shed-retries is gone", []string{"-addr", "x", "-shed-retries", "1"}, "flag provided but not defined: -shed-retries"},
		{"max-retry-after is gone", []string{"-addr", "x", "-max-retry-after", "500ms"}, "flag provided but not defined: -max-retry-after"},
		// An empty or flat staircase is refused before any step runs:
		// the closed port is never dialled.
		{"max-qps below rate", []string{"-mode", "capacity", "-addr", "127.0.0.1:1", "-rate", "50", "-max-qps", "10"}, "below the first step's 50 qps"},
		{"factor not above 1", []string{"-mode", "capacity", "-addr", "127.0.0.1:1", "-factor", "1"}, "factor 1 must be above 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			err := runCtx(context.Background(), tc.argv, &out, &errb)
			if err == nil || exitCode(err) != 2 {
				t.Fatalf("runCtx(%v) = %v (exit %d), want a usage error (exit 2)\nstderr: %s", tc.argv, err, exitCode(err), errb.String())
			}
			if msg := errb.String() + err.Error(); !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q (stderr %q) does not mention %q", err, errb.String(), tc.want)
			}
		})
	}
}

// TestInterruptedRunNeverPasses: a capacity search cut short by a
// signal exits 130 and writes no verdict — not a pass for the step it
// did not finish.
func TestInterruptedRunNeverPasses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"degraded": false}`))
	}))
	defer ts.Close()
	dir := t.TempDir()
	right := filepath.Join(dir, "right.csv")
	if err := os.WriteFile(right, []byte("RecordId,AwardTitle\nr1,soil survey\nr2,crop yield\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	summary := filepath.Join(dir, "capacity.json")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var out, errb strings.Builder
	err := runCtx(ctx, []string{"-mode", "capacity", "-addr", ts.URL, "-right", right, "-summary", summary,
		"-blend", "single=1", "-rate", "20", "-max-qps", "20", "-duration", "500ms", "-report-every", "0",
		"-slo", "availability=99,latency=5s@99"}, &out, &errb)
	if err == nil || !cliutil.Interrupted(ctx, err) {
		t.Fatalf("interrupted search returned %v, want the interrupt (exit %d)\nstderr: %s", err, cliutil.ExitInterrupted, errb.String())
	}
	if data, serr := os.ReadFile(summary); serr == nil {
		t.Fatalf("an interrupted search wrote a summary:\n%s", data)
	}
}

func TestNormalizeURL(t *testing.T) {
	cases := map[string]string{
		"":                        "",
		"127.0.0.1:8080":          "http://127.0.0.1:8080",
		"http://host:1/":          "http://host:1",
		"https://host.example/x/": "https://host.example/x",
	}
	for in, want := range cases {
		if got := normalizeURL(in); got != want {
			t.Errorf("normalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteSummaryKeepsThePreviousFileOnFailure: -summary is replaced
// whole or not at all — a summary that cannot be rendered (NaN is not
// JSON) leaves the previous file byte-identical and no temp file behind.
func TestWriteSummaryKeepsThePreviousFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "soak.json")
	good := &load.Summary{GeneratedBy: "emload", Mode: "soak", Pass: true}
	if err := writeSummary(path, nil, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(before), `"pass": true`) {
		t.Fatalf("first summary: %q, %v", before, err)
	}
	bad := &load.Summary{Mode: "soak", Phases: []*load.Result{{OfferedQPS: math.NaN()}}}
	if err := writeSummary(path, nil, bad); err == nil {
		t.Fatal("a summary holding NaN rendered")
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatalf("failed write changed the previous summary:\n%s", after)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}

	var out strings.Builder
	if err := writeSummary("", &out, good); err != nil || out.String() != string(before) {
		t.Fatalf("stdout summary %q (%v), want the file's bytes", out.String(), err)
	}
}
