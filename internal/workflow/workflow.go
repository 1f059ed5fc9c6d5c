// Package workflow composes the EM building blocks into executable
// matching workflows with provenance logging. The central type models the
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
	"sync"

	"emgo/internal/block"
	"emgo/internal/drift"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/rules"
	"emgo/internal/table"
)

// Log collects the steps a workflow executed, in order — the record the
// two teams shared when discussing results. Appends and reads are safe
// from concurrent goroutines: parallel stage workers may log while an
// operator (or the debug endpoint) renders the log mid-run.
type Log struct {
	mu      sync.Mutex
	entries []obs.ProvEntry
}

// AddOutcome appends an entry; outcome is one of obs.Outcome*, or empty
// for ok — the hardened runtime's record of resumes and aborts.
func (l *Log) AddOutcome(step, detail string, count int, outcome string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, obs.ProvEntry{Step: step, Detail: detail, Count: count, Outcome: outcome})
}

// Entries returns a copy of the log: later appends do not grow the
// returned slice, and mutating the returned entries does not touch the
// log.
func (l *Log) Entries() []obs.ProvEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]obs.ProvEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// String renders the log one step per line; non-ok outcomes are flagged
// in brackets.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Entries() {
		if e.Outcome != "" && e.Outcome != obs.OutcomeOK {
			fmt.Fprintf(&b, "%-24s %6d  [%s] %s\n", e.Step, e.Count, e.Outcome, e.Detail)
			continue
		}
		fmt.Fprintf(&b, "%-24s %6d  %s\n", e.Step, e.Count, e.Detail)
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
	// matcher applied to candidates that no rule decided.
	Features *feature.Set
	Imputer  *feature.Imputer
	Matcher  ml.Matcher
	// NegativeRules veto predicted matches (Figure 10).
	NegativeRules *rules.Engine
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
	// DriftProfile is the statistical profile the quality stage built
	// from the run's result when RunOptions.Drift asked for one (nil
	// otherwise). In capture
	// mode it is the baseline snapshot; in check mode it is the live
	// profile that was scored against the baseline.
	DriftProfile *drift.Profile
	// Quality is the drift assessment of a checked run against its
	// baseline (nil unless RunOptions.Drift supplied one).
	Quality *drift.Assessment
	// Log records each step.
	Log *Log
	// Report is the machine-readable run record (spans, metrics,
	// provenance) built on every run, success or failure.
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
