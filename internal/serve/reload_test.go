package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/workflow"
)

// saveFixtureMatcher trains the fixture matcher and persists it as an
// artifact file, returning the path.
func saveFixtureMatcher(t *testing.T, dir, name string) string {
	t.Helper()
	w, _, _ := fixtureWorkflow(t)
	path := filepath.Join(dir, name)
	if err := ml.SaveMatcherFile(path, w.Matcher); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadArtifactChecksumAndProbe(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureMatcher(t, dir, "model.json")
	art, err := LoadArtifact(context.Background(), path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if art.Checksum == "" || art.Matcher == nil || art.Path != path {
		t.Fatalf("artifact = %+v", art)
	}
	// Same bytes load to the same checksum (the provenance contract).
	art2, err := LoadArtifact(context.Background(), path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if art2.Checksum != art.Checksum {
		t.Fatalf("checksums differ for identical bytes: %s vs %s", art.Checksum, art2.Checksum)
	}
}

func TestLoadArtifactRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"truncated.json": `{"kind":"tree","payl`,
		"empty.json":     ``,
		"not-json.json":  `hello world`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifact(context.Background(), path, 2); err == nil {
			t.Fatalf("%s: corrupt artifact loaded without error", name)
		}
	}
	if _, err := LoadArtifact(context.Background(), filepath.Join(dir, "missing.json"), 2); err == nil {
		t.Fatal("missing artifact loaded without error")
	}
}

func TestLoadArtifactRetriesTransientReads(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	path := saveFixtureMatcher(t, dir, "model.json")
	fault.Enable("serve.reload", fault.Plan{FailFirst: 2})
	art, err := LoadArtifact(context.Background(), path, 2)
	if err != nil {
		t.Fatalf("transient read faults should be retried away: %v", err)
	}
	if art.Matcher == nil {
		t.Fatal("nil matcher after retried load")
	}
	if fault.Count("serve.reload") != 3 {
		t.Fatalf("reload site reached %d times, want 3 (2 failures + success)", fault.Count("serve.reload"))
	}
}

func TestReloadSwapAndRollback(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	dir := t.TempDir()
	path := saveFixtureMatcher(t, dir, "model.json")

	w, l, r := fixtureWorkflow(t)
	s, err := New(context.Background(), Config{MatcherPath: path}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Artifact()
	if first == nil || first.Path != path {
		t.Fatalf("initial artifact = %+v", first)
	}

	// Trip the breaker so we can verify a successful reload resets it.
	s.breaker.Record(errBoom)
	s.breaker.Record(errBoom)
	s.breaker.Record(errBoom)
	s.breaker.Record(errBoom)
	s.breaker.Record(errBoom)

	// Reload the same file: succeeds, same checksum, breaker re-closed.
	art, err := s.Reload(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Checksum != first.Checksum {
		t.Fatalf("checksum changed on identical bytes: %s vs %s", art.Checksum, first.Checksum)
	}
	if st := s.breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker after successful reload = %v, want closed", st)
	}

	// Corrupt the artifact on disk: reload must fail and roll back.
	if err := os.WriteFile(path, []byte(`{"garbage":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(context.Background(), ""); err == nil {
		t.Fatal("corrupt reload reported success")
	}
	if got := s.Artifact(); got == nil || got.Checksum != first.Checksum {
		t.Fatalf("rollback failed: artifact = %+v, want checksum %s", got, first.Checksum)
	}

	// The service still answers with the rolled-back matcher.
	row, err := RecordRow(l.Schema(), map[string]any{
		"Num": "2008-11111-11111", "Title": "corn fungicide guidelines north central",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.matchOne(context.Background(), row, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("post-rollback request degraded: %+v", resp)
	}
}

// TestReloadRetriesTransientRead: a server built from the zero Config
// reads artifacts under artifactRetry, so one failed read costs a retry
// and only a read that fails every attempt rolls the reload back.
func TestReloadRetriesTransientRead(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	dir := t.TempDir()
	pathA := saveFixtureMatcher(t, dir, "a.json")
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	// The same model under other bytes: another checksum to tell apart.
	pathB := filepath.Join(dir, "b.json")
	if err := os.WriteFile(pathB, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{MatcherPath: pathA})
	first := s.Artifact().Checksum
	reload := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/-/reload", "application/json", strings.NewReader(`{"path":"`+path+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	serving := func() string {
		t.Helper()
		if st, _, body := postMatch(t, ts.URL, l1Request); st != http.StatusOK {
			t.Fatalf("match = %d: %s", st, body)
		}
		return s.Artifact().Checksum
	}

	fault.Enable("serve.reload", fault.Plan{FailFirst: 1})
	status, body := reload(pathB)
	second, _ := body["checksum"].(string)
	if status != http.StatusOK || second == "" || second == first {
		t.Fatalf("reload with one failed read = %d %v, want 200 and a checksum other than %s", status, body, first)
	}
	if n := fault.Count("serve.reload"); n != 2 {
		t.Fatalf("reload site reached %d times, want 2 (one failure, one success)", n)
	}
	if got := serving(); got != second {
		t.Fatalf("serving checksum %s after the retried reload, want %s", got, second)
	}

	fault.Enable("serve.reload", fault.Plan{FailFirst: artifactRetry.MaxAttempts})
	status, body = reload(pathA)
	if status != http.StatusUnprocessableEntity || body["active_checksum"] != second {
		t.Fatalf("reload failing every read = %d %v, want 422 with %s still active", status, body, second)
	}
	if n := fault.Count("serve.reload"); n != artifactRetry.MaxAttempts {
		t.Fatalf("reload site reached %d times, want every one of %d attempts", n, artifactRetry.MaxAttempts)
	}
	if got := serving(); got != second {
		t.Fatalf("serving checksum %s after the rolled-back reload, want %s", got, second)
	}
}

func TestReloadSpecEmbeddedRefused(t *testing.T) {
	w, l, r := fixtureWorkflow(t)
	s, err := New(context.Background(), Config{}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Artifact() == nil || s.Artifact().Path != specArtifactPath {
		t.Fatalf("spec-embedded artifact = %+v", s.Artifact())
	}
	if _, err := s.Reload(context.Background(), ""); err == nil {
		t.Fatal("reload without an artifact path must be refused")
	}
}

func TestNewRejectsMissingArtifact(t *testing.T) {
	w, l, r := fixtureWorkflow(t)
	_, err := New(context.Background(), Config{MatcherPath: filepath.Join(t.TempDir(), "nope.json")}, w, l, r)
	if err == nil {
		t.Fatal("New with a missing artifact path must fail")
	}
}

// TestNewRejectsUnblockableDeployment: a spec whose blocker cannot run over
// the reference table builds, but its deployment must not start — New
// returns the blocker's error instead of a server that reports ready and
// answers every request degraded.
func TestNewRejectsUnblockableDeployment(t *testing.T) {
	l, r := fixtureTables(t)
	for _, tc := range []struct {
		name    string
		blocker workflow.BlockerSpec
		want    string
	}{
		{"right column missing", workflow.BlockerSpec{Type: "overlap", LeftCol: "Title", RightCol: "Nope", Tokenizer: "word", Threshold: 3}, `"Nope"`},
		{"no threshold", workflow.BlockerSpec{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "word"}, "threshold must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &workflow.Spec{Name: "unblockable", Blockers: []workflow.BlockerSpec{tc.blocker}}
			wf, err := spec.Build(l, r, nil)
			if err != nil {
				t.Fatalf("fixture: the spec must build, it is its deployment that cannot block: %v", err)
			}
			s, err := New(context.Background(), Config{}, wf, l, r)
			if err == nil {
				defer s.Close()
				resp, merr := s.matchOne(context.Background(), l.Row(0), false)
				t.Fatalf("New started a deployment that cannot block; a request then answers %+v, %v", resp, merr)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: %v, want the blocker's error (%s)", err, tc.want)
			}
		})
	}
}
