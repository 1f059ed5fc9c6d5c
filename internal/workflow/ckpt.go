package workflow

import (
	"errors"
	"fmt"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/obs"
	"emgo/internal/table"
)

// This file is RunCtx's durability layer: the expensive stage outputs
// (the blocked candidate set, the learned predictions with their
// quarantine list) are written to an optional ckpt.Store after each
// stage completes, and restored — after checksum and semantic
// validation — on the next run over the same inputs. Everything here
// is fail-open in both directions: a checkpoint that cannot be written
// degrades to "no checkpoint" (the run continues), and a checkpoint
// that cannot be trusted is quarantined and the stage recomputed. The
// only way a checkpoint influences a run is by being byte-verified and
// semantically valid.

// Checkpoint artifact names inside the run store.
const (
	ckptBlocked = "stage.blocked.json"
	ckptLearned = "stage.learned.json"
)

// pairsArtifact is the serialized form of one candidate set, carrying
// the table shapes it was computed over so a stale or foreign artifact
// is rejected even if its checksum is intact.
type pairsArtifact struct {
	LeftName  string   `json:"left"`
	RightName string   `json:"right"`
	LeftRows  int      `json:"left_rows"`
	RightRows int      `json:"right_rows"`
	Pairs     [][2]int `json:"pairs"`
}

// learnedArtifact persists the matching stage: predicted matches plus
// the pairs quarantined under the error budget (resuming must not
// silently reintroduce poison pairs).
type learnedArtifact struct {
	pairsArtifact
	Quarantined [][2]int `json:"quarantined,omitempty"`
}

// newPairsArtifact snapshots a candidate set in insertion order.
func newPairsArtifact(cs *block.CandidateSet) pairsArtifact {
	return pairsArtifact{
		LeftName:  cs.Left.Name(),
		RightName: cs.Right.Name(),
		LeftRows:  cs.Left.Len(),
		RightRows: cs.Right.Len(),
		Pairs:     block.EncodePairs(cs.Pairs()),
	}
}

// decode checks the artifact against the live tables and rebuilds its
// candidate set; any mismatch means the checkpoint belongs to different
// inputs (or was tampered with) and must be recomputed.
func (a *pairsArtifact) decode(left, right *table.Table) (*block.CandidateSet, error) {
	if a.LeftName != left.Name() || a.RightName != right.Name() {
		return nil, fmt.Errorf("tables %q/%q, checkpoint has %q/%q", left.Name(), right.Name(), a.LeftName, a.RightName)
	}
	if a.LeftRows != left.Len() || a.RightRows != right.Len() {
		return nil, fmt.Errorf("table shapes %dx%d, checkpoint has %dx%d", left.Len(), right.Len(), a.LeftRows, a.RightRows)
	}
	return block.DecodePairs(a.Pairs, left, right)
}

// loadStageCkpt reads one stage artifact into dst (which must embed or
// be a pairsArtifact); validate decodes it and runs the semantic check.
// It returns false — after quarantining when appropriate — whenever
// the stage must be recomputed, recording why on the span.
func loadStageCkpt(store *ckpt.Store, name string, span *obs.Span, dst any, validate func() error) bool {
	if store == nil || !store.Has(name) {
		return false
	}
	if err := store.ReadJSON(name, dst); err != nil {
		if errors.Is(err, ckpt.ErrCorrupt) {
			span.Event("ckpt", fmt.Sprintf("checkpoint %s corrupt, quarantined; recomputing: %v", name, err))
		}
		return false
	}
	if err := validate(); err != nil {
		store.Quarantine(name, err.Error())
		span.Event("ckpt", fmt.Sprintf("checkpoint %s failed validation, quarantined; recomputing: %v", name, err))
		return false
	}
	span.Event("ckpt", "restored "+name)
	obs.C("workflow.ckpt.resumed").Inc()
	return true
}

// saveStageCkpt persists one stage artifact; failures are events, not
// errors — a run that cannot checkpoint still completes.
func saveStageCkpt(store *ckpt.Store, name string, span *obs.Span, v any) {
	if store == nil {
		return
	}
	if err := store.WriteJSON(name, v); err != nil {
		span.Event("ckpt", fmt.Sprintf("checkpoint %s not written: %v", name, err))
		obs.C("workflow.ckpt.write_failed").Inc()
		return
	}
	span.Event("ckpt", "wrote "+name)
}
