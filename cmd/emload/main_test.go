package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/load"
)

// run returns 2 (usage) for argument errors, without touching the
// network; these pin the CLI contract the smoke harness
// (internal/smoke) relies on.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"unknown mode", []string{"-mode", "stress", "-addr", "x"}, "want run|soak|capacity|chaos"},
		{"run needs addr", []string{"-mode", "run"}, "-addr is required"},
		{"soak needs addr", []string{"-mode", "soak"}, "-addr is required"},
		{"capacity needs addr", []string{"-mode", "capacity"}, "-addr is required"},
		{"chaos needs server-bin", []string{"-mode", "chaos"}, "-server-bin is required"},
		{"bad blend", []string{"-addr", "x", "-blend", "single=oops"}, "blend"},
		{"bad slo", []string{"-mode", "soak", "-addr", "x", "-slo", "latency=banana"}, "-slo"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run(tc.argv, &out, &errb)
			if code != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.argv, code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", errb.String(), tc.want)
			}
		})
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
	bad := &load.Summary{Mode: "soak", Phases: []load.PhaseSummary{{OfferedQPS: math.NaN()}}}
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
