package serve

import (
	"context"
	"fmt"
	"os"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/ml"
	"emgo/internal/workflow"
)

// Artifact is one loaded matcher artifact: the fitted model plus the
// provenance the service reports and the reload protocol verifies.
type Artifact struct {
	// Matcher is the fitted model.
	Matcher ml.Matcher
	// deployment is the workflow deployed with Matcher over the right table
	// (workflow.Deploy), set before the artifact goes live: every part a
	// request that loaded this artifact runs.
	deployment *workflow.Workflow
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
// A read, decode or validation failure is returned as it happens: the
// caller rolls back (Reload) or refuses to start (New).
// wantFeatures > 0 additionally probes the model with a zero vector of
// that width — a matcher trained against a different feature set must
// be rejected at load time, not panic on the first request.
func LoadArtifact(path string, wantFeatures int) (*Artifact, error) {
	data, err := os.ReadFile(path)
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

// Reload atomically replaces the live deployment with the artifact at
// path (empty = the path the server was started with) deployed in its
// place. The swap is all-or-nothing: a missing, corrupt, or
// shape-incompatible artifact, or one whose deployment could not be bound,
// leaves the previous one serving and returns the error — the rollback the
// deployment protocol requires. On success the breaker is reset, since its
// failure history described the replaced model.
func (s *Server) Reload(ctx context.Context, path string) (*Artifact, error) {
	if path == "" {
		path = s.cfg.MatcherPath
	}
	if path == "" || path == specArtifactPath {
		return nil, fmt.Errorf("serve: no matcher artifact path to reload from (started with the spec-embedded matcher)")
	}
	// Serialize reloads; the swap itself is a single atomic pointer store,
	// so in-flight requests keep the deployment they started with and are
	// never torn.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	art, err := LoadArtifact(path, s.width)
	if err != nil {
		return nil, err
	}
	// The live deployment's rules and blockers are bound already.
	if art.deployment, err = s.live.Load().deployment.Deploy(ctx, art.Matcher, s.right); err != nil {
		return nil, fmt.Errorf("serve: matcher artifact %s: %w", path, err)
	}
	s.live.Store(art)
	s.breaker.Reset()
	return art, nil
}
