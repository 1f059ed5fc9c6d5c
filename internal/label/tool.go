package label

import (
	"context"
	"fmt"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/obs"
	"emgo/internal/retry"
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
// the user must hold the session. The pair leaves the queue. Each submit
// passes the "label.submit" fault-injection site (the cloud tool's flaky
// write path); a failed submit leaves the pair queued, so retrying is
// safe.
func (t *Tool) Submit(user string, p block.Pair, l Label) error {
	if t.session != user {
		return fmt.Errorf("label: %s does not hold the session", user)
	}
	if err := fault.Inject("label.submit"); err != nil {
		return err
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

// LabelAll drains the queue by asking judge for each pending pair —
// the programmatic path used when the simulated expert labels a batch:
// LabelAllCtx with a judge that cannot fail, one attempt a pair. The
// caller must hold the session.
func (t *Tool) LabelAll(user string, judge func(block.Pair) Label) error {
	return t.LabelAllCtx(context.Background(), user, retry.Policy{}, func(p block.Pair) (Label, error) {
		return judge(p), nil
	})
}

// LabelAllCtx drains the queue under the hardened runtime: both the
// judge (the human or service producing labels) and the submit path are
// retried on the policy's deterministic backoff schedule, and the drain
// stops promptly when ctx is done. A pair that exhausts its retries
// aborts the drain with the pair identified; everything labeled so far
// stays labeled.
func (t *Tool) LabelAllCtx(ctx context.Context, user string, policy retry.Policy, judge func(block.Pair) (Label, error)) error {
	if t.session != user {
		return fmt.Errorf("label: %s does not hold the session", user)
	}
	if judge == nil {
		return fmt.Errorf("label: drain needs a judge")
	}
	pending := t.Pending()
	dctx, sp := obs.StartSpan(ctx, "label.drain")
	defer sp.End()
	sp.SetItems(len(pending))
	labeled := obs.C("label.labeled")
	for _, p := range pending {
		if err := dctx.Err(); err != nil {
			sp.SetOutcome(obs.OutcomeAborted)
			return err
		}
		var l Label
		err := retry.Do(dctx, policy, func() error {
			var jerr error
			l, jerr = judge(p)
			return jerr
		})
		if err != nil {
			sp.SetOutcome(obs.OutcomeAborted)
			return fmt.Errorf("label: judging pair (%d,%d): %w", p.A, p.B, err)
		}
		err = retry.Do(dctx, policy, func() error {
			return t.Submit(user, p, l)
		})
		if err != nil {
			sp.SetOutcome(obs.OutcomeAborted)
			return fmt.Errorf("label: submitting pair (%d,%d): %w", p.A, p.B, err)
		}
		labeled.Inc()
	}
	sp.SetOutcome(obs.OutcomeOK)
	return nil
}
