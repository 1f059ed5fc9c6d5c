// Package workflow composes the EM building blocks into executable
// matching workflows, each run leaving one record: its report, where every
// stage is a span. The central type models the
// shape the case study converged on (Figures 8-10): positive "sure-match"
// rules applied directly to the input tables, a blocking pipeline, a
// trained learning-based matcher over the remaining candidates, and
// negative rules vetoing the learner's predictions. Workflows are patched
// (Section 10) by running the same workflow over additional data slices
// and unioning results at the record-ID level.
package workflow

import (
	"context"
	"fmt"
	"strings"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/rules"
	"emgo/internal/table"
)

// Stages renders a run report's stage spans one per line, in run order:
// the step, its item count and, when the stage did not end ok, its
// outcome in brackets. It is how emmatch and the examples print a run.
func Stages(rep *obs.Report) string {
	var b strings.Builder
	var walk func(*obs.SpanData)
	walk = func(d *obs.SpanData) {
		for _, c := range d.Children {
			step, ok := strings.CutPrefix(c.Name, "stage.")
			if !ok {
				walk(c)
				continue
			}
			fmt.Fprintf(&b, "%-24s %6d", step, c.Items)
			if c.Outcome != "" && c.Outcome != obs.OutcomeOK {
				fmt.Fprintf(&b, "  [%s]", c.Outcome)
			}
			b.WriteByte('\n')
		}
	}
	if rep != nil && rep.Trace != nil {
		walk(rep.Trace)
	}
	return b.String()
}

// Workflow is a complete EM workflow: rules + blocking + learner + veto
// rules. SureRules and NegativeRules may be nil engines; Matcher may be
// nil for a rules-only workflow (the IRIS shape).
type Workflow struct {
	// Name identifies the workflow in logs.
	Name string
	// SureRules are positive rules pulling sure matches straight from the
	// input tables (bypassing blocking, so a rule can never be lost to a
	// blocking mistake).
	SureRules *rules.Engine
	// Blockers build the candidate set; they are unioned.
	Blockers []block.Blocker
	// Features, Imputer and Matcher form the trained learning-based
	// matcher applied to candidates that no rule decided. On a workflow
	// Deploy returned they are narrowed to the features Matcher reads.
	Features *feature.Set
	Imputer  *feature.Imputer
	Matcher  ml.Matcher
	// NegativeRules veto predicted matches (Figure 10).
	NegativeRules *rules.Engine

	// trained is, on a workflow Deploy returned, the learned stage as it
	// was trained, before Deploy narrowed it: what the quality profile
	// observes and a re-deploy narrows from. nil on any other workflow.
	trained *learned
}

// learned is a learned stage: a feature set, the imputer of its vectors
// and the matcher that reads them.
type learned struct {
	features *feature.Set
	imputer  *feature.Imputer
	matcher  ml.Matcher
}

// full returns w's learned stage over the full feature set.
func (w *Workflow) full() learned {
	if w.trained != nil {
		return *w.trained
	}
	return learned{w.Features, w.Imputer, w.Matcher}
}

// narrow is l as a run computes it: the features its matcher reads and
// no others (ml.Narrow), their means, and the matcher renumbered onto
// them.
func (l learned) narrow() (learned, error) {
	m, read := ml.Narrow(l.matcher, l.features.Len())
	im, err := l.imputer.Restrict(read)
	return learned{l.features.Restrict(read), im, m}, err
}

// Result is the outcome of running a workflow over one pair of tables.
type Result struct {
	// Sure are the matches the positive rules declared (C1/D1 in the
	// paper's notation).
	Sure *block.CandidateSet
	// Candidates is the blocked candidate set minus the sure matches
	// (C = C2 - C1).
	Candidates *block.CandidateSet
	// Learned are the matcher's predicted matches on Candidates before
	// negative rules (R1/R2).
	Learned *block.CandidateSet
	// Vetoed is how many learned matches the negative rules flipped.
	Vetoed int
	// Final is Sure ∪ (Learned minus vetoed) (S1/S2 unioned with sure
	// matches).
	Final *block.CandidateSet
	// Report is the run's one record (a span per stage, and the
	// quality section) built on every run, success or failure.
	Report *obs.Report
}

// Run executes the workflow on one (left, right) table pair: RunCtx
// with no deadline and the zero options, for callers that want matches
// or an error and nothing in between — on failure the result is nil
// (RunCtx's partial result is the operator's record, not theirs).
func (w *Workflow) Run(left, right *table.Table) (*Result, error) {
	res, err := w.RunCtx(context.Background(), left, right, RunOptions{})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// IDPair is a match expressed as record identifiers — the "pairs of
// UniqueAwardNumber and AccessionNumber" deliverable format.
type IDPair struct {
	Left, Right string
}

// MatchIDs extracts the final matches of a result as record-ID pairs using
// the given ID columns.
func (r *Result) MatchIDs(leftIDCol, rightIDCol string) ([]IDPair, error) {
	lj, err := r.Final.Left.Col(leftIDCol)
	if err != nil {
		return nil, err
	}
	rj, err := r.Final.Right.Col(rightIDCol)
	if err != nil {
		return nil, err
	}
	out := make([]IDPair, 0, r.Final.Len())
	for _, p := range r.Final.Sorted() {
		out = append(out, IDPair{
			Left:  r.Final.Left.Row(p.A)[lj].Str(),
			Right: r.Final.Right.Row(p.B)[rj].Str(),
		})
	}
	return out, nil
}

// MergeIDs unions match-ID lists from multiple workflow runs (the
// patching step of Section 10), deduplicating exact pairs while keeping
// first-seen order.
func MergeIDs(lists ...[]IDPair) []IDPair {
	seen := make(map[IDPair]struct{})
	var out []IDPair
	for _, list := range lists {
		for _, p := range list {
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	return out
}
