package ckpt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"emgo/internal/fault"
)

func TestOpenArtifactStreamsAndVerifies(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	payload := []byte(`{"x":1,"pad":"abcdefghijklmnop"}`)
	if err := s.Write("a.json", payload); err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenArtifact("a.json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.size != int64(len(payload)) {
		t.Fatalf("manifest size = %d, want %d", r.size, len(payload))
	}
	// Tiny reads force the hash to fold incrementally across calls.
	got, err := io.ReadAll(io.NopCloser(&slowReader{r: r, max: 5}))
	if err != nil {
		t.Fatalf("streaming read: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("streamed bytes differ: %s", got)
	}
	// The verdict is sticky: further reads keep answering io.EOF.
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("post-EOF read = %v, want io.EOF", err)
	}
}

// slowReader caps each Read at max bytes.
type slowReader struct {
	r   io.Reader
	max int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.max {
		p = p[:s.max]
	}
	return s.r.Read(p)
}

func TestOpenArtifactMissing(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	if _, err := s.OpenArtifact("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestOpenArtifactCorruptionQuarantines: flipped bytes stream out
// (they parse!) but the EOF verdict is ErrCorrupt, sticky, and the
// artifact lands in quarantine — a decoder that trusted the bytes
// before draining would have believed a lie.
func TestOpenArtifactCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte(`{"x":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenArtifact("a.json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = io.ReadAll(r)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt at EOF, got %v", err)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt verdict not sticky: %v", err)
	}
	if s.Has("a.json") {
		t.Fatal("corrupt artifact still in manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "a.json.0")); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
}

func TestOpenArtifactTruncationQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte(`{"x":12345}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "a.json"), 3); err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenArtifact("a.json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for truncation, got %v", err)
	}
}

// TestOpenArtifactOversize: a file longer than its manifest entry fails
// as soon as the excess byte is read, not only at EOF.
func TestOpenArtifactOversize(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "fp")
	if err := s.Write("a.json", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte(`{"x":1}trailing-garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenArtifact("a.json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for oversize, got %v", err)
	}
}

func TestOpenArtifactFaultInjection(t *testing.T) {
	defer fault.Reset()
	s := openT(t, t.TempDir(), "fp")
	if err := s.Write("a.json", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	fault.Enable("ckpt.read", fault.Plan{})
	if _, err := s.OpenArtifact("a.json"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("injected read fault: want ErrCorrupt, got %v", err)
	}
	if s.Has("a.json") {
		t.Fatal("faulted artifact still in manifest")
	}
}
