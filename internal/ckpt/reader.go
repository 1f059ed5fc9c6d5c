package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"emgo/internal/fault"
	"emgo/internal/obs"
)

// The one verifying read path. OpenArtifact returns an io.ReadCloser
// that hashes bytes as they flow and delivers the manifest verdict at
// EOF: nothing is believed until size and SHA-256 match, and corruption
// quarantines. Store.Read is this reader drained into memory, and
// ReadJSON and Restore sit on Read, so no other code compares a size or
// a checksum.
//
// The verdict arrives only at EOF, so a caller that decodes
// incrementally MUST drain the reader and check its error before acting
// on the decoded value: bytes that parse can still be bytes that lie.

// ArtifactReader streams one artifact's bytes, verifying size and
// checksum against the manifest as a side effect of reading. Not safe
// for concurrent use (one reader, one goroutine — the store itself
// stays concurrency-safe).
type ArtifactReader struct {
	store *Store
	name  string
	f     *os.File
	size  int64
	sha   string
	h     hash.Hash
	read  int64
	err   error // sticky: io.EOF after a clean verify, ErrCorrupt otherwise
}

// OpenArtifact opens a manifest-listed artifact for streaming reads.
// A missing entry returns ErrNotFound; an entry whose file cannot be
// opened (or an injected ckpt.read fault) is quarantined and returns
// ErrCorrupt. The caller owns Close.
func (s *Store) OpenArtifact(name string) (*ArtifactReader, error) {
	s.mu.Lock()
	a, ok := s.manifest.Artifacts[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := fault.Inject("ckpt.read"); err != nil {
		s.condemn(name)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	f, err := os.Open(filepath.Join(s.dir, a.File))
	if err != nil {
		s.condemn(name)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return &ArtifactReader{
		store: s,
		name:  name,
		f:     f,
		size:  a.Size,
		sha:   a.SHA256,
		h:     sha256.New(),
	}, nil
}

// Read streams the next bytes, folding them into the running hash. At
// the underlying EOF the byte count and digest are checked against the
// manifest: a clean match returns io.EOF, anything else quarantines the
// artifact and returns an ErrCorrupt-wrapped error (sticky, so a
// decoder that saw partial bytes keeps failing rather than resuming).
func (r *ArtifactReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.f.Read(p)
	if n > 0 {
		r.h.Write(p[:n])
		r.read += int64(n)
		if r.read > r.size {
			return 0, r.fail(fmt.Sprintf("size %d exceeds manifest %d", r.read, r.size))
		}
	}
	switch {
	case err == io.EOF:
		if r.read != r.size {
			return n, r.fail(fmt.Sprintf("size %d, manifest says %d", r.read, r.size))
		}
		if hex.EncodeToString(r.h.Sum(nil)) != r.sha {
			return n, r.fail("checksum mismatch")
		}
		r.err = io.EOF
		obs.C("ckpt.hits").Inc()
		return n, io.EOF
	case err != nil:
		return n, r.fail(err.Error())
	}
	return n, nil
}

// fail quarantines the artifact and latches the corrupt verdict.
func (r *ArtifactReader) fail(reason string) error {
	r.store.condemn(r.name)
	r.err = fmt.Errorf("%w: %s: %s", ErrCorrupt, r.name, reason)
	return r.err
}

// Close releases the file handle. It does not imply verification: only
// a Read that returned io.EOF does.
func (r *ArtifactReader) Close() error { return r.f.Close() }
