// Package ckpt is the durable, crash-safe run store behind resumable
// pipeline runs. A Store owns one per-run directory holding a
// versioned manifest (manifest.json) plus one file per completed stage
// artifact. Every write follows temp-file + fsync + atomic-rename, so
// process death at any instant leaves the directory in a state Open
// can always make sense of: artifacts are trusted only when the
// manifest lists them with a matching SHA-256 checksum, and anything
// torn, truncated, or tampered with is quarantined (moved aside, never
// deleted) so the stage recomputes instead of crashing or silently
// reusing bad bytes.
//
// The store is deliberately value-agnostic: artifacts are []byte (or
// JSON via WriteJSON/ReadJSON); the pipeline layers (workflow, umetrics,
// serve's job tier) own their artifact schemas and hand their semantic
// validation to the one restore-or-recompute protocol, Do (step.go).
// Fault sites ckpt.write, ckpt.read, and ckpt.rename let tests inject
// torn writes and checksum mismatches; the EMCKPT_KILL environment
// variable lets the chaos harness kill the process at exact write
// boundaries.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"emgo/internal/fault"
	"emgo/internal/obs"
)

// manifestFile is the manifest's file name inside the run directory.
const manifestFile = "manifest.json"

// quarantineDir is the subdirectory corrupt artifacts are moved into.
const quarantineDir = "quarantine"

// ErrCorrupt tags read failures caused by bad bytes (checksum
// mismatch, truncation, undecodable payload) as opposed to a missing
// artifact. Callers fall back to recomputing the stage; errors.Is
// works through the wrapping.
var ErrCorrupt = errors.New("ckpt: artifact corrupt")

// ErrNotFound is returned when an artifact is not in the manifest.
var ErrNotFound = errors.New("ckpt: artifact not found")

// Store is a crash-safe artifact store over one run directory. All
// methods are safe for concurrent use. The nil *Store is valid and
// behaves as an always-empty, write-discarding store, so pipeline code
// can thread an optional store without nil checks.
type Store struct {
	mu        sync.Mutex
	dir       string
	manifest  *Manifest
	discarded string // why a pre-existing directory was not resumed, "" otherwise
}

// Open opens (or creates) the run directory and loads its manifest.
// fingerprint binds the directory to one pipeline input; when the
// existing manifest is unreadable, has the wrong version, or carries a
// different fingerprint, the old manifest is quarantined and the store
// starts empty — Open never fails because of bad prior state, only on
// I/O errors creating the directory. Stray temp files from a crashed
// writer are removed.
func Open(dir, fingerprint string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	removeTempFiles(dir)

	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory.
	case err != nil:
		s.discarded = fmt.Sprintf("manifest unreadable: %v", err)
	default:
		m, derr := decodeManifest(data)
		switch {
		case derr != nil:
			s.discarded = derr.Error()
		case m.Fingerprint != fingerprint:
			s.discarded = fmt.Sprintf("fingerprint mismatch (have %.12s…, want %.12s…)", m.Fingerprint, fingerprint)
		default:
			s.manifest = m
		}
	}
	if s.manifest == nil {
		if s.discarded != "" {
			obs.C("ckpt.manifest_discarded").Inc()
			s.quarantineLocked(manifestFile, path)
		}
		s.manifest = &Manifest{Version: ManifestVersion, Fingerprint: fingerprint, Artifacts: make(map[string]Artifact)}
	}
	return s, nil
}

// Discarded reports why Open did not resume a pre-existing directory
// ("" when the directory was fresh or resumed cleanly).
func (s *Store) Discarded() string {
	if s == nil {
		return ""
	}
	return s.discarded
}

// Has reports whether a completed artifact with this name is recorded
// in the manifest. It does not validate the bytes; Read does.
func (s *Store) Has(name string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.manifest.Artifacts[name]
	return ok
}

// Names returns the completed artifact names, sorted — the order the
// manifest renders them in.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.manifest.Artifacts))
	for name := range s.manifest.Artifacts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Write durably stores an artifact: bytes to a temp file, fsync,
// atomic rename to <name>, then a manifest commit recording the
// checksum (itself temp + fsync + rename). A crash between the two
// renames leaves an unreferenced artifact file the next Open ignores.
// On the nil store Write is a no-op.
func (s *Store) Write(name string, data []byte) error {
	if s == nil {
		return nil
	}
	if !ValidName(name) || name == manifestFile {
		return fmt.Errorf("ckpt: invalid artifact name %q", name)
	}
	if err := fault.Inject("ckpt.write"); err != nil {
		return err
	}
	chaosKill("before", name)
	path := filepath.Join(s.dir, name)
	if err := s.writeArtifactFile(path, name, data); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifest.Artifacts[name] = Artifact{
		File:   name,
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(data)),
	}
	if err := s.commitManifestLocked(); err != nil {
		delete(s.manifest.Artifacts, name)
		return err
	}
	obs.C("ckpt.writes").Inc()
	chaosKill("after", name)
	return nil
}

// writeArtifactFile performs the temp + fsync + rename dance for one
// artifact, honouring the ckpt.rename fault site and the mid-write
// chaos kill (which leaves a genuinely torn temp file behind).
func (s *Store) writeArtifactFile(path, name string, data []byte) error {
	return AtomicWriteTo(path, 0o644, func(w io.Writer) error {
		if mid := chaosArmed("mid", name); mid {
			// Persist a torn prefix, then die exactly mid-write.
			half := len(data) / 2
			if _, err := w.Write(data[:half]); err != nil {
				return err
			}
			if f, ok := w.(*os.File); ok {
				f.Sync()
			}
			chaosKill("mid", name)
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		return fault.Inject("ckpt.rename")
	})
}

// commitManifestLocked atomically rewrites manifest.json; callers hold
// s.mu.
func (s *Store) commitManifestLocked() error {
	data, err := s.manifest.encode()
	if err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(s.dir, manifestFile), data, 0o644)
}

// Read returns an artifact's bytes once they verify: OpenArtifact
// drained to its verdict, so the size and checksum comparison exists in
// reader.go only. A missing entry returns ErrNotFound; bad bytes (or an
// injected ckpt.read fault) quarantine the artifact, drop it from the
// manifest, and return an ErrCorrupt-wrapped error so the caller
// recomputes the stage.
func (s *Store) Read(name string) ([]byte, error) {
	rd, err := s.OpenArtifact(name)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// WriteJSON stores v as a JSON artifact.
func (s *Store) WriteJSON(name string, v any) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encode %s: %w", name, err)
	}
	return s.Write(name, data)
}

// ReadJSON reads and decodes a JSON artifact into v. Undecodable bytes
// that passed the checksum (a schema change, a bug) quarantine the
// artifact like any other corruption.
func (s *Store) ReadJSON(name string, v any) error {
	data, err := s.Read(name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		s.condemn(name, "undecodable JSON")
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return nil
}

// Quarantine moves an artifact into the quarantine/ subdirectory and
// removes it from the manifest — the evidence survives for a
// post-mortem, but the resume path will recompute the stage. Called
// directly it retires an artifact whose bytes are sound but which must
// not be used (a fresh run over an old directory, a validator's verdict
// in Restore) and counts ckpt.quarantined only; reason is for the call
// site's reader, callers record it in their spans.
func (s *Store) Quarantine(name, reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.manifest.Artifacts[name]
	if ok {
		delete(s.manifest.Artifacts, name)
		// Best-effort: a failed manifest commit still leaves the entry
		// removed in memory, so this process will not reuse it.
		_ = s.commitManifestLocked()
	}
	file := name
	if ok {
		file = a.File
	}
	s.quarantineLocked(name, filepath.Join(s.dir, file))
	obs.C("ckpt.quarantined").Inc()
}

// condemn quarantines an artifact whose bytes failed verification or
// decoding — the only thing ckpt.corrupt counts.
func (s *Store) condemn(name, reason string) {
	obs.C("ckpt.corrupt").Inc()
	s.Quarantine(name, reason)
}

// quarantineLocked moves src into quarantine/ under a unique name;
// best-effort (the file may already be gone).
func (s *Store) quarantineLocked(name, src string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	for i := 0; ; i++ {
		dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
		if _, err := os.Lstat(dst); err == nil {
			continue
		}
		_ = os.Rename(src, dst)
		return
	}
}

// removeTempFiles deletes stray *.tmp* files a crashed writer left in
// the run directory (never inside quarantine/).
func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.Contains(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Fingerprint condenses any number of identity parts (config JSON,
// spec bytes, table content hashes) into the hex digest stores are
// opened with.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}
