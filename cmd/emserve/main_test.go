package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/feature"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/serve"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// writeFixture persists a deployable spec (blockers, rule layers,
// features, imputer means, fitted matcher) and the two CSV tables it
// serves — the same shape internal/serve tests against, but passed to
// the binary the way production would pass it: as files.
func writeFixture(t *testing.T, dir string) (specPath, leftPath, rightPath string) {
	t.Helper()
	schema := table.MustSchema(
		table.Field{Name: "RecordId", Kind: table.String},
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Title", Kind: table.String},
	)
	l := table.New("L", schema)
	l.MustAppend(table.Row{table.S("l0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	l.MustAppend(table.Row{table.S("l1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	l.MustAppend(table.Row{table.S("l2"), table.S("WIS00001"), table.S("dairy cattle genetics study wisconsin")})
	r := table.New("R", schema)
	r.MustAppend(table.Row{table.S("r0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	r.MustAppend(table.Row{table.S("r1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	r.MustAppend(table.Row{table.S("r2"), table.S("WIS99999"), table.S("dairy cattle genetics study wisconsin")})

	fs, err := feature.Generate(l, r, map[string]string{"Title": "Title"}, []string{"Title"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 0}, {A: 2, B: 2}}
	y := []int{1, 1, 0, 0, 0, 1}
	x, err := fs.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	if x, err = im.Transform(x); err != nil {
		t.Fatal(err)
	}
	ds, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	tree := &ml.DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	matcherSpec, err := ml.ExportMatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := fs.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	spec := &workflow.Spec{
		Name: "serve-cli-fixture",
		Blockers: []workflow.BlockerSpec{
			{Type: "overlap", LeftCol: "Title", RightCol: "Title",
				Tokenizer: "word", Threshold: 3, Normalize: true},
		},
		SureRules: []workflow.RuleSpec{
			{Type: "equal", Name: "M1", LeftCol: "Num", RightCol: "Num", Verdict: "match"},
		},
		NegativeRules: []workflow.RuleSpec{
			{Type: "comparable_mismatch", Name: "neg", LeftCol: "Num", RightCol: "Num",
				Patterns: []string{"XXX#####"}},
		},
		Features:     descs,
		ImputerMeans: im.Means(),
		Matcher:      matcherSpec,
	}
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	specPath = filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	leftPath = filepath.Join(dir, "left.csv")
	rightPath = filepath.Join(dir, "right.csv")
	if err := l.WriteCSVFile(leftPath); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSVFile(rightPath); err != nil {
		t.Fatal(err)
	}
	return specPath, leftPath, rightPath
}

func TestRunMissingFlagsIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err: %v", err)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunBadInjectSpec: a plan the syntax does not know fails the start,
// before anything is armed — a malformed key, a site no code passes (the
// pipeline's own stages carry none), a key or mode the plan lost.
func TestRunBadInjectSpec(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	for _, inject := range []string{"ml.predict:bogus", "ml.predict", "serve.match:prob=0.5", "serve.match:mode=panic"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-spec", spec, "-left", left, "-right", right,
			"-transforms", "none", "-inject", inject}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-inject") {
			t.Errorf("-inject %s: err: %v", inject, err)
		}
		if strings.Contains(stderr.String(), "armed") {
			t.Errorf("-inject %s: stderr says a site was armed: %s", inject, stderr.String())
		}
	}
}

// TestRunBreakerFlagsAreGone: the flags of the matcher circuit breaker,
// of the async job tier and its result streams, of the server-side SLO
// tracker, of the tail capture and of the standalone matcher artifact are
// usage errors.
func TestRunBreakerFlagsAreGone(t *testing.T) {
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	for _, extra := range [][]string{
		{"-breaker-failures", "2"}, {"-breaker-cooldown", "1s"},
		{"-job-dir", dir}, {"-job-workers", "2"}, {"-job-shard-size", "32"}, {"-job-max-queued", "8"},
		{"-stream-chunk-timeout", "15s"}, {"-max-streams", "4"}, {"-stream-flush", "256"},
		{"-slo", "availability=99"},
		{"-tail-n", "4"}, {"-tail-dump", filepath.Join(dir, "tail.json")},
		{"-matcher", filepath.Join(dir, "matcher.json")}, {"-export-matcher", filepath.Join(dir, "matcher.json")},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none"}, extra...)
		if err := run(args, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%v: err = %v, want a usage error", extra, err)
		}
	}
}

func TestRunUnknownTransformSet(t *testing.T) {
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "nope"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown transform set") {
		t.Fatalf("err: %v", err)
	}
}

// startServer launches runCtx on a goroutine bound to an OS-assigned
// port, waits for the address file, and returns the base URL plus the
// shutdown handles. The stderr buffer is only safe to read after the
// returned done channel fires.
func startServer(t *testing.T, args []string) (base string, cancel context.CancelFunc, done chan error, stderr *bytes.Buffer) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	ctx, cancelCtx := context.WithCancel(context.Background())
	stderr = &bytes.Buffer{}
	done = make(chan error, 1)
	go func() {
		var stdout bytes.Buffer
		done <- runCtx(ctx, append(args,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-drain-timeout", "2s"), &stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(bytes.TrimSpace(data)) > 0 {
			base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			cancelCtx()
			t.Fatalf("server did not write %s; last err %v", addrFile, err)
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before binding: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return base, cancelCtx, done, stderr
}

func TestServeMatchAndGracefulShutdown(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	base, cancel, done, stderr := startServer(t, []string{
		"-spec", spec, "-left", left, "-right", right, "-transforms", "none"})

	resp, err := http.Post(base+"/v1/match", "application/json",
		strings.NewReader(`{"record":{"RecordId":"q1","Title":"swamp dodder ecology management carrot"}}`))
	if err != nil {
		cancel()
		t.Fatalf("match request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("match status %d: %s", resp.StatusCode, body)
	}
	var mr struct {
		Matches []struct {
			RightID string `json:"right_id"`
			Source  string `json:"source"`
		} `json:"matches"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		cancel()
		t.Fatalf("response: %v\n%s", err, body)
	}
	if len(mr.Matches) != 1 || mr.Matches[0].RightID != "r1" || mr.Degraded {
		cancel()
		t.Fatalf("unexpected response: %s", body)
	}
	for _, ep := range []string{"/healthz", "/readyz", "/v1/status", "/debug/vars", "/debug/pprof/heap"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			cancel()
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			cancel()
			t.Fatalf("GET %s: status %d", ep, resp.StatusCode)
		}
	}

	// Cancellation stands in for SIGTERM (the same context path): the
	// server must drain, self-check, and surface the interrupt. The
	// test client shares the process, so park its keep-alive goroutines
	// first or the server's leak self-check counts them.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shutdown err: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	logs := stderr.String()
	for _, want := range []string{"draining", "drain complete", "no leaked goroutines"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, logs)
		}
	}
}

// TestServeIgnoresSIGHUP: a SIGHUP neither reloads nor ends the server
// (the signal's default action would, undrained): after it, /readyz and
// POST /v1/match still answer 200, and the server drains as before.
func TestServeIgnoresSIGHUP(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	base, cancel, done, stderr := startServer(t, []string{
		"-spec", spec, "-left", left, "-right", right, "-transforms", "none"})

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		cancel()
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // give the signal time to land
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/readyz", ""},
		{http.MethodPost, "/v1/match", `{"record":{"RecordId":"q1","Title":"swamp dodder ecology management carrot"}}`},
	} {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("%s %s after SIGHUP: %v", c.method, c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			cancel()
			t.Fatalf("%s %s after SIGHUP = %d: %s", c.method, c.path, resp.StatusCode, body)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shutdown err: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(stderr.String(), "drain complete") {
		t.Fatalf("shutdown log missing the drain:\n%s", stderr.String())
	}
}

// TestServeInjectedFaultAnswers500: a site armed from the command line
// fires in the running binary — a failing pass is no degradation, the
// request answers 500 naming the site. The record-naming 500 of a
// failing matcher is serve's TestMatchFailsOnMatcherFault.
func TestServeInjectedFaultAnswers500(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset() // -inject arms the global registry
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	base, cancel, done, _ := startServer(t, []string{
		"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-inject", "serve.match"})
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}()

	resp, err := http.Post(base+"/v1/match", "application/json",
		strings.NewReader(`{"record":{"RecordId":"q1","Title":"swamp dodder ecology management carrot"}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("response: %v\n%s", err, body)
	}
	if !strings.Contains(er.Error, `"serve.match"`) {
		t.Fatalf("the error does not name the fault: %s", body)
	}
}
