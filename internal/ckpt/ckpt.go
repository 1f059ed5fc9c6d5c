// Package ckpt holds the repository's durable writes: the atomic file
// writers every persisted output goes through (atomic.go), and the
// crash-safe store behind the job tier's resumable shards. A Store owns
// one per-run directory holding a versioned manifest (manifest.json)
// plus one file per completed artifact. Every write follows temp-file +
// fsync + atomic-rename, so process death at any instant leaves the
// directory in a state Open can always make sense of: artifacts are
// trusted only when the manifest lists them with a matching SHA-256
// checksum, and anything torn, truncated, or tampered with is
// quarantined (moved aside, never deleted) so the shard recomputes
// instead of crashing or silently reusing bad bytes.
//
// The store is deliberately value-agnostic: artifacts are []byte (or
// JSON via WriteJSON/ReadJSON); serve's job tier owns its shard schema
// and hands its semantic validation to Restore (restore.go). Fault
// sites ckpt.write, ckpt.read, and ckpt.rename let tests inject torn
// writes and checksum mismatches; the EMCKPT_KILL environment variable
// lets the chaos harness kill the process at exact write boundaries
// (chaos.go).
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
// methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	manifest *Manifest
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
	if err == nil {
		m, derr := decodeManifest(data)
		if derr == nil && m.Fingerprint == fingerprint {
			s.manifest = m
		}
	}
	if s.manifest == nil {
		if !errors.Is(err, os.ErrNotExist) {
			// Unreadable, undecodable, or another input's: never resumed.
			s.quarantineLocked(manifestFile, path)
		}
		s.manifest = &Manifest{Version: ManifestVersion, Fingerprint: fingerprint, Artifacts: make(map[string]Artifact)}
	}
	return s, nil
}

// Has reports whether a completed artifact with this name is recorded
// in the manifest. It does not validate the bytes; Read does.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.manifest.Artifacts[name]
	return ok
}

// Write durably stores an artifact: bytes to a temp file, fsync,
// atomic rename to <name>, then a manifest commit recording the
// checksum (itself temp + fsync + rename). A crash between the two
// renames leaves an unreferenced artifact file the next Open ignores.
// The kill-points of name fire once each: before the temp file, between
// its sync and its rename, and after the manifest commit.
func (s *Store) Write(name string, data []byte) error {
	if !ValidName(name) || name == manifestFile {
		return fmt.Errorf("ckpt: invalid artifact name %q", name)
	}
	if err := fault.Inject("ckpt.write"); err != nil {
		return err
	}
	chaosKill("before", name)
	err := atomicWrite(filepath.Join(s.dir, name), 0o644, name, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return err
		}
		return fault.Inject("ckpt.rename")
	})
	if err != nil {
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
	chaosKill("after", name)
	return nil
}

// commitManifestLocked atomically rewrites manifest.json; callers hold
// s.mu. The manifest has no kill-points of its own: a store artifact's
// are its commit's.
func (s *Store) commitManifestLocked() error {
	data, err := s.manifest.encode()
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, manifestFile), 0o644, "", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
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
		s.condemn(name)
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return nil
}

// quarantine moves an artifact into the quarantine/ subdirectory and
// removes it from the manifest — the evidence survives for a
// post-mortem, but the resume path will recompute the shard. Called
// directly it retires an artifact whose bytes are sound but which must
// not be used (a validator's verdict in Restore) and counts nothing.
func (s *Store) quarantine(name string) {
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
}

// condemn quarantines an artifact whose bytes failed verification or
// decoding — the only thing ckpt.corrupt counts.
func (s *Store) condemn(name string) {
	obs.C("ckpt.corrupt").Inc()
	s.quarantine(name)
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
