package label

import (
	"fmt"

	"emgo/internal/block"
)

// Tool simulates the cloud-based labeling tool built for the UMETRICS
// team (Section 8 "Setting Up"): record pairs are uploaded in batches, a
// single labeler at a time holds the session ("the tool was limited in
// that only one person could label at any time"), and labels land in a
// shared store.
type Tool struct {
	store   *Store
	pending []block.Pair
	session string // active labeler, "" when free
}

// NewTool returns a tool writing into store.
func NewTool(store *Store) *Tool {
	return &Tool{store: store}
}

// Upload queues record pairs for labeling; already-labeled pairs are
// skipped (re-sampling across iterations must not re-ask the expert).
// It returns how many pairs were actually queued.
func (t *Tool) Upload(pairs []block.Pair) int {
	queued := 0
	inQueue := make(map[block.Pair]struct{}, len(t.pending))
	for _, p := range t.pending {
		inQueue[p] = struct{}{}
	}
	for _, p := range pairs {
		if t.store.Has(p) {
			continue
		}
		if _, dup := inQueue[p]; dup {
			continue
		}
		inQueue[p] = struct{}{}
		t.pending = append(t.pending, p)
		queued++
	}
	return queued
}

// Pending returns the pairs still awaiting labels, in queue order.
func (t *Tool) Pending() []block.Pair {
	out := make([]block.Pair, len(t.pending))
	copy(out, t.pending)
	return out
}

// OpenSession locks the tool for one labeler. It fails while another
// session is active — the single-writer limitation of the built tool.
func (t *Tool) OpenSession(user string) error {
	if user == "" {
		return fmt.Errorf("label: session needs a user name")
	}
	if t.session != "" {
		return fmt.Errorf("label: tool busy: %s is labeling", t.session)
	}
	t.session = user
	return nil
}

// CloseSession releases the lock held by user.
func (t *Tool) CloseSession(user string) error {
	if t.session != user {
		return fmt.Errorf("label: %s does not hold the session", user)
	}
	t.session = ""
	return nil
}

// Submit records user's label for p. The pair must be in the queue and
// the user must hold the session. The pair leaves the queue.
func (t *Tool) Submit(user string, p block.Pair, l Label) error {
	if t.session != user {
		return fmt.Errorf("label: %s does not hold the session", user)
	}
	idx := -1
	for i, q := range t.pending {
		if q == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("label: pair (%d,%d) is not queued", p.A, p.B)
	}
	if err := t.store.Set(p, l); err != nil {
		return err
	}
	t.pending = append(t.pending[:idx], t.pending[idx+1:]...)
	return nil
}

// LabelAll drains the queue by asking judge for each pending pair — the
// programmatic path used when the simulated expert labels a batch. The
// caller must hold the session. A pair whose label cannot be stored
// stops the drain, named in the error; everything labeled so far stays
// labeled.
func (t *Tool) LabelAll(user string, judge func(block.Pair) Label) error {
	if t.session != user {
		return fmt.Errorf("label: %s does not hold the session", user)
	}
	if judge == nil {
		return fmt.Errorf("label: drain needs a judge")
	}
	for _, p := range t.Pending() {
		if err := t.Submit(user, p, judge(p)); err != nil {
			return fmt.Errorf("label: submitting pair (%d,%d): %w", p.A, p.B, err)
		}
	}
	return nil
}
