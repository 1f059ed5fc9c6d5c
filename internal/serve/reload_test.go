package serve

import (
	"context"
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
	art, err := LoadArtifact(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if art.Checksum == "" || art.Matcher == nil || art.Path != path {
		t.Fatalf("artifact = %+v", art)
	}
	// Same bytes load to the same checksum (the provenance contract).
	art2, err := LoadArtifact(path, 2)
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
		if _, err := LoadArtifact(path, 2); err == nil {
			t.Fatalf("%s: corrupt artifact loaded without error", name)
		}
	}
	if _, err := LoadArtifact(filepath.Join(dir, "missing.json"), 2); err == nil {
		t.Fatal("missing artifact loaded without error")
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

	// An unreadable artifact, then a corrupt one: each reload fails at
	// its first failure and rolls back.
	if _, err := s.Reload(context.Background(), filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("reload of a missing artifact reported success")
	}
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
