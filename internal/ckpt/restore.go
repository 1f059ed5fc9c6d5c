package ckpt

import "fmt"

// Restore is the read half of a durable step, whose write half is
// Store.WriteJSON: the job tier restores a shard through it when a fetch
// reads the shard back. A layer brings its validator and nothing else.
//
// Artifact name is decoded into a new A once its bytes verify, then
// shown to validate (nil accepts); any error it returns condemns the
// artifact as belonging to other inputs. The error says why nothing was
// restored: ErrNotFound, ErrCorrupt (bad or undecodable bytes, already
// quarantined), or the validator's verdict, the artifact quarantined.
func Restore[A any](s *Store, name string, validate func(*A) error) (*A, error) {
	art := new(A)
	if err := s.ReadJSON(name, art); err != nil {
		return nil, err
	}
	if validate == nil {
		return art, nil
	}
	if err := validate(art); err != nil {
		s.quarantine(name)
		return nil, fmt.Errorf("failed validation, quarantined: %w", err)
	}
	return art, nil
}
