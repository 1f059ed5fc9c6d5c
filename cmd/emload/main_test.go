package main

import (
	"strings"
	"testing"
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
		{"unknown mode", []string{"-mode", "stress", "-addr", "x"}, "unknown mode"},
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
