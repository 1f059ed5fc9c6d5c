package serve

import (
	"context"
	"fmt"
	"os"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/retry"
)

// Artifact is one loaded matcher artifact: the fitted model plus the
// provenance the service reports and the reload protocol verifies.
type Artifact struct {
	// Matcher is the fitted model.
	Matcher ml.Matcher
	// features is the workflow's feature set restricted to what Matcher
	// reads, the right table's cells bound: the set a request that loaded
	// this artifact vectorizes with, whatever is swapped in meanwhile.
	features *feature.Set
	// Checksum is the SHA-256 fingerprint of the artifact bytes (the
	// same hashing the checkpoint store uses for its manifests), so an
	// operator can verify which model build is live.
	Checksum string
	// Path is where the artifact was loaded from ("<spec>" when the
	// matcher came embedded in the workflow spec).
	Path string
	// LoadedAt is when this artifact became live.
	LoadedAt time.Time
}

// LoadArtifact reads, verifies, and validates a matcher artifact file.
// Reads pass the "serve.reload" fault site and transient failures are
// retried under artifactRetry; decode and validation failures are permanent.
// wantFeatures > 0 additionally probes the model with a zero vector of
// that width — a matcher trained against a different feature set must
// be rejected at load time, not panic on the first request.
func LoadArtifact(ctx context.Context, path string, wantFeatures int) (*Artifact, error) {
	var data []byte
	err := retry.Do(ctx, artifactRetry, func() error {
		if ferr := fault.Inject("serve.reload"); ferr != nil {
			return ferr
		}
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("serve: read matcher artifact %s: %w", path, err)
	}
	m, err := ml.LoadMatcherBytes(path, data)
	if err != nil {
		return nil, err
	}
	if err := probeMatcher(m, wantFeatures); err != nil {
		return nil, fmt.Errorf("serve: matcher artifact %s: %w", path, err)
	}
	return &Artifact{
		Matcher:  m,
		Checksum: ckpt.Fingerprint(string(data)),
		Path:     path,
		LoadedAt: time.Now(),
	}, nil
}

// probeMatcher exercises the model against a zero vector of the
// workflow's feature width, converting a shape-mismatch panic into an
// error the reload path can roll back on.
func probeMatcher(m ml.Matcher, features int) (err error) {
	if features <= 0 {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe with %d-feature vector panicked: %v", features, r)
		}
	}()
	probe := make([]float64, features)
	label := m.Predict(probe)
	if label != 0 && label != 1 {
		return fmt.Errorf("probe predicted label %d, want 0 or 1", label)
	}
	return nil
}

// deploy makes art servable: the workflow's feature set restricted to
// what art's matcher reads — not what the spec-embedded one does: a tree
// loaded from a file tests features of its own — with the right table's
// cells bound for it. The spec-embedded matcher comes with its set (New).
// deploy runs before art is stored, so a failure leaves whatever was
// serving untouched.
func (s *Server) deploy(ctx context.Context, art *Artifact) error {
	fs := s.wf.Features
	if fs == nil || s.wf.Imputer == nil {
		return fmt.Errorf("serve: matcher deployed without features/imputer")
	}
	if art.features == nil {
		art.features = fs.Restrict(ml.ReadSet(art.Matcher, fs.Len()))
	}
	if err := art.features.Bind(ctx, s.right); err != nil {
		return fmt.Errorf("serve: matcher artifact %s: bind feature cells: %w", art.Path, err)
	}
	return nil
}

// Reload atomically replaces the live matcher with the artifact at
// path (empty = the path the server was started with). The swap is
// all-or-nothing: a missing, corrupt, or shape-incompatible artifact, or
// one whose feature cells could not be bound, leaves the previous matcher
// serving and returns the error — the rollback the deployment protocol
// requires. On success the breaker is reset, since its failure history
// described the replaced model.
func (s *Server) Reload(ctx context.Context, path string) (*Artifact, error) {
	if path == "" {
		path = s.matcherPath
	}
	if path == "" || path == specArtifactPath {
		return nil, fmt.Errorf("serve: no matcher artifact path to reload from (started with the spec-embedded matcher)")
	}
	// Serialize reloads; the artifact swap itself is a single atomic
	// pointer store, so in-flight requests keep the model, feature set
	// and cells they started with and are never torn.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	art, err := LoadArtifact(ctx, path, s.featureWidth())
	if err != nil {
		return nil, err
	}
	if err := s.deploy(ctx, art); err != nil {
		return nil, err
	}
	s.artifact.Store(art)
	s.breaker.Reset()
	return art, nil
}
