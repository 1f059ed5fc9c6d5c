package workflow

import (
	"fmt"

	"emgo/internal/block"
	"emgo/internal/table"
)

// This file is what RunCtx brings to the durable step (ckpt.Do): the
// schemas of its two stage artifacts (the blocked candidate set, the
// learned predictions) and the validator that decodes one against the
// live tables. Restore, quarantine, recompute and save are the step's;
// the only way a checkpoint influences a run is by being byte-verified
// and semantically valid.

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

// learnedArtifact persists the matching stage: the predicted matches.
// Quarantined is read, never written: a store from an older build may
// list pairs that run dropped after they failed, and its predictions
// leave those pairs out, so decode refuses such an artifact and the
// stage is recomputed.
type learnedArtifact struct {
	pairsArtifact
	Quarantined [][2]int `json:"quarantined,omitempty"`
}

// decode is the pairs artifact's decode, refusing a quarantine list.
func (a *learnedArtifact) decode(left, right *table.Table) (*block.CandidateSet, error) {
	if len(a.Quarantined) > 0 {
		return nil, fmt.Errorf("checkpoint lists %d quarantined pairs its predictions leave out", len(a.Quarantined))
	}
	return a.pairsArtifact.decode(left, right)
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
