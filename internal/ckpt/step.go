package ckpt

import (
	"errors"
	"fmt"

	"emgo/internal/obs"
)

// This file is the one durable step: "restore this step's artifact if it
// verifies and validates against the live inputs, else recompute and
// save, fail-open both ways". The workflow stages and the case-study
// sections run through Do; the job shards use its halves — Restore when
// a fetch reads a shard back, Store.WriteJSON when an attempt commits
// one, the retry loop between them being theirs. A layer brings its
// validator and nothing else.

// Restore is the step's read half: artifact name decoded into a new A
// once its bytes verify, then shown to validate (nil accepts), which on
// accepting has usually also installed what it decoded; any error it
// returns condemns the artifact as belonging to other inputs. The error
// says why nothing was restored: ErrNotFound, ErrCorrupt (bad or
// undecodable bytes, already quarantined), or the validator's verdict,
// the artifact quarantined.
func Restore[A any](s *Store, name string, validate func(*A) error) (*A, error) {
	art := new(A)
	if err := s.ReadJSON(name, art); err != nil {
		return nil, err
	}
	if validate == nil {
		return art, nil
	}
	if err := validate(art); err != nil {
		s.Quarantine(name, err.Error())
		return nil, fmt.Errorf("failed validation, quarantined: %w", err)
	}
	return art, nil
}

// Do runs one durable step. With artifact name restorable (see Restore)
// the step is resumed and run is never called; otherwise run computes it
// live and, when that succeeds, snapshot's artifact is saved under name —
// a failed save costs the checkpoint, never the run (a caller that must
// act on a write error uses Store.WriteJSON, the write half). note is the
// one line for the caller's span: what was restored, why not, what was
// written. On the nil store Do is run() alone: no snapshot is taken.
func Do[A any](s *Store, name string, validate func(*A) error, run func() error, snapshot func() A) (resumed bool, note string, err error) {
	if s == nil {
		return false, "", run()
	}
	_, rerr := Restore(s, name, validate)
	switch {
	case rerr == nil:
		obs.C("ckpt.resumed").Inc()
		return true, "restored " + name, nil
	case !errors.Is(rerr, ErrNotFound):
		note = fmt.Sprintf("checkpoint %s not restored, recomputing: %v", name, rerr)
	}
	if err := run(); err != nil {
		return false, note, err
	}
	saved := "wrote " + name
	if werr := s.WriteJSON(name, snapshot()); werr != nil {
		obs.C("ckpt.write_failed").Inc()
		saved = fmt.Sprintf("checkpoint %s not written: %v", name, werr)
	}
	if note != "" {
		saved = note + "; " + saved
	}
	return false, saved, nil
}
