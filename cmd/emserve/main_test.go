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
	x, err := fs.Vectorize(l, r, pairs)
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

func TestRunBadInjectSpec(t *testing.T) {
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-inject", "ml.predict:bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-inject") {
		t.Fatalf("err: %v", err)
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

func TestExportMatcherWritesLoadableArtifact(t *testing.T) {
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	artifact := filepath.Join(dir, "matcher.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-export-matcher", artifact}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("export: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), artifact) {
		t.Fatalf("stdout: %s", stdout.String())
	}
	art, err := serve.LoadArtifact(artifact, 0)
	if err != nil {
		t.Fatalf("exported artifact does not load: %v", err)
	}
	if art.Matcher.Name() == "" {
		t.Fatal("loaded matcher has no name")
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

func TestServeSIGHUPReloadsMatcherArtifact(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	artifact := filepath.Join(dir, "matcher.json")
	var stdout, stderr0 bytes.Buffer
	if err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-export-matcher", artifact}, &stdout, &stderr0); err != nil {
		t.Fatalf("export: %v", err)
	}
	base, cancel, done, stderr := startServer(t, []string{
		"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-matcher", artifact})

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		cancel()
		t.Fatal(err)
	}
	// The reload is observable via /v1/status: loaded_at moves forward
	// while the checksum stays (same bytes). Poll the endpoint instead
	// of racing the stderr buffer.
	deadline := time.Now().Add(5 * time.Second)
	reloaded := false
	for time.Now().Before(deadline) && !reloaded {
		resp, err := http.Get(base + "/v1/status")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var st struct {
				Matcher struct {
					Path     string `json:"path"`
					Checksum string `json:"checksum"`
				} `json:"matcher"`
			}
			if json.Unmarshal(body, &st) == nil && st.Matcher.Path == artifact && st.Matcher.Checksum != "" {
				reloaded = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !reloaded {
		t.Fatalf("status never showed the artifact matcher:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "SIGHUP reloaded matcher") {
		t.Fatalf("stderr missing the SIGHUP reload line:\n%s", stderr.String())
	}
}

func TestServeInjectedMatcherFaultDegrades(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset() // -inject arms the global registry
	dir := t.TempDir()
	spec, left, right := writeFixture(t, dir)
	base, cancel, done, _ := startServer(t, []string{
		"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-inject", "ml.predict"})
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr struct {
		Degraded bool   `json:"degraded"`
		Reason   string `json:"degraded_reason"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("response: %v\n%s", err, body)
	}
	if !mr.Degraded || mr.Reason != "matcher_error" {
		t.Fatalf("expected rule-only degradation, got %s", body)
	}
}
