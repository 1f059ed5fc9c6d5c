package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/fault"
)

func openT(t *testing.T, dir, fp string) *Store {
	t.Helper()
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// manifestQuarantined reports whether Open retired the manifest it found
// in dir instead of resuming it.
func manifestQuarantined(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, quarantineDir, manifestFile+".0"))
	return err == nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("blocked.json", []byte(`{"pairs":[[1,2]]}`)); err != nil {
		t.Fatal(err)
	}
	if !s.Has("blocked.json") {
		t.Fatal("artifact not recorded")
	}

	// A fresh Open with the same fingerprint resumes.
	s2 := openT(t, dir, "fp")
	if manifestQuarantined(dir) {
		t.Fatal("unexpected discard")
	}
	data, err := s2.Read("blocked.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"pairs":[[1,2]]}` {
		t.Fatalf("wrong bytes back: %s", data)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type payload struct {
		N     int
		Pairs [][2]int
	}
	s := openT(t, t.TempDir(), "fp")
	in := payload{N: 2, Pairs: [][2]int{{0, 1}, {3, 4}}}
	if err := s.WriteJSON("stage.json", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.ReadJSON("stage.json", &out); err != nil {
		t.Fatal(err)
	}
	if out.N != in.N || len(out.Pairs) != 2 || out.Pairs[1] != [2]int{3, 4} {
		t.Fatalf("round trip changed payload: %+v", out)
	}
}

func TestMissingArtifact(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	if _, err := s.Read("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestFingerprintMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp-a")
	if err := s.Write("a.json", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, "fp-b")
	if s2.Has("a.json") {
		t.Fatal("foreign artifact must not be resumable")
	}
	// The evidence survives in quarantine.
	if !manifestQuarantined(dir) {
		t.Fatal("old manifest was not quarantined")
	}
}

func TestCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// Flip bytes on disk — a torn or bit-rotted artifact.
	if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte(`{"x":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, "fp")
	if _, err := s2.Read("a.json"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// Quarantined: gone from the manifest, moved to quarantine/.
	if s2.Has("a.json") {
		t.Fatal("corrupt artifact still in manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "a.json.0")); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	// A third open must not see it either (manifest was recommitted).
	if openT(t, dir, "fp").Has("a.json") {
		t.Fatal("quarantine did not survive reopen")
	}
}

func TestTruncatedArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte(`{"x":12345}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "a.json"), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := openT(t, dir, "fp").Read("a.json"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for truncation, got %v", err)
	}
}

func TestCorruptManifestStartsFresh(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, "fp")
	if !manifestQuarantined(dir) {
		t.Fatal("torn manifest should be quarantined")
	}
	if s2.Has("a.json") {
		t.Fatal("artifacts behind a torn manifest must not be trusted")
	}
	// The store is usable again immediately.
	if err := s2.Write("b.json", []byte("2")); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadNames(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	for _, name := range []string{"", ".", "..", "a/b", "../escape", "manifest.json"} {
		if err := s.Write(name, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

func TestTempFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	openT(t, dir, "fp")
	stray := filepath.Join(dir, "a.json.tmp12345")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	openT(t, dir, "fp")
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived Open")
	}
}

func TestFaultSites(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s := openT(t, dir, "fp")

	fault.Enable("ckpt.write", fault.Plan{FailFirst: 1})
	if err := s.Write("a.json", []byte("x")); err == nil {
		t.Fatal("ckpt.write fault not surfaced")
	}
	if s.Has("a.json") {
		t.Fatal("failed write must not be recorded")
	}
	fault.Reset()

	// A rename fault aborts before the artifact becomes visible.
	fault.Enable("ckpt.rename", fault.Plan{FailFirst: 1})
	if err := s.Write("a.json", []byte("x")); err == nil {
		t.Fatal("ckpt.rename fault not surfaced")
	}
	if s.Has("a.json") {
		t.Fatal("half-renamed write must not be recorded")
	}
	fault.Reset()

	if err := s.Write("a.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// An injected read fault behaves like corruption: quarantine + recompute.
	fault.Enable("ckpt.read", fault.Plan{FailFirst: 1})
	if _, err := s.Read("a.json"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt from ckpt.read fault, got %v", err)
	}
	if s.Has("a.json") {
		t.Fatal("fault-corrupted artifact still trusted")
	}
}

func TestFingerprintHelper(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint must length-prefix parts")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Fatal("fingerprint must be deterministic")
	}
	if len(Fingerprint()) != 64 {
		t.Fatal("fingerprint should be a sha256 hex digest")
	}
}

func TestQuarantineKeepsEvidenceUnique(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	for i := 0; i < 3; i++ {
		if err := s.Write("a.json", []byte(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
		s.quarantine("a.json")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 3 {
		t.Fatalf("want 3 quarantined generations, got %d", len(q))
	}
}
