package load

import (
	"fmt"
	"strings"
)

// Gate is the one assertion set every mode judges a phase by, computed
// from the phase's own accounting. A soak passes only when every check
// passes — the harness exits non-zero otherwise, which is what makes it
// a CI gate rather than a report; a capacity step adds its own bars
// (judgeStep).
type Gate struct {
	// Objectives are client-side reliability targets (ParseObjectives).
	// Availability is judged over non-shed completions (sheds are
	// admission policy, not failures); latency objectives are judged over
	// every completed request — a shed answer is an answer the client
	// waited for.
	Objectives []Objective
}

// maxDropFrac caps the fraction of arrivals the generator itself dropped
// at the outstanding cap; past it the measurement is not trustworthy.
// The gate's other bars are zero: no unexpected answer (a 200 to a
// malformed body is a bug, not noise) and no shed answer without a
// Retry-After hint.
const maxDropFrac = 0.01

// GateCheck is one named verdict.
type GateCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// GateResult is the full gate evaluation, embedded in the summary JSON.
type GateResult struct {
	Pass   bool        `json:"pass"`
	Checks []GateCheck `json:"checks"`
}

// check appends one verdict.
func (g *GateResult) check(name string, pass bool, format string, args ...any) {
	g.Checks = append(g.Checks, GateCheck{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	if !pass {
		g.Pass = false
	}
}

// verdict renders the result in one line: "pass", or every failed
// check with its detail.
func (g *GateResult) verdict() string {
	if g.Pass {
		return "pass"
	}
	var failed []string
	for _, c := range g.Checks {
		if !c.Pass {
			failed = append(failed, c.Name+": "+c.Detail)
		}
	}
	return "FAIL: " + strings.Join(failed, "; ")
}

// Evaluate judges one finished load phase against the gate.
func (gate Gate) Evaluate(res *Result) *GateResult {
	out := &GateResult{Pass: true}

	bad := res.bad()
	nonShed := res.Completed - res.Classes[ClassShed]

	for _, o := range gate.Objectives {
		switch o.Kind {
		case KindAvailability:
			if nonShed == 0 {
				out.check(o.Name, false, "no non-shed requests completed")
				continue
			}
			okFrac := 100 * float64(nonShed-bad) / float64(nonShed)
			out.check(o.Name, okFrac >= o.Target,
				"%.3f%% ok (want >= %.3f%%; %d bad of %d non-shed)", okFrac, o.Target, bad, nonShed)
		case KindLatency:
			if res.Completed == 0 {
				out.check(o.Name, false, "no requests completed")
				continue
			}
			q := res.Hist.Quantile(o.Target / 100)
			out.check(o.Name, q <= o.ThresholdMS,
				"p%g = %s (want <= %s)", o.Target, fmtMS(q), fmtMS(o.ThresholdMS))
		}
	}

	n := res.Classes[ClassUnexpected]
	out.check("unexpected_answers", n == 0, "%d unexpected answer(s) (allowed 0)", n)
	out.check("shed_retry_after", res.ShedNoRetryAfter == 0,
		"%d shed answer(s) missing Retry-After", res.ShedNoRetryAfter)
	if res.Scheduled > 0 {
		dropFrac := float64(res.Dropped) / float64(res.Scheduled)
		out.check("generator_drops", dropFrac <= maxDropFrac,
			"dropped %.2f%% of arrivals at the outstanding cap (allowed %.2f%%)", 100*dropFrac, 100*maxDropFrac)
	}
	return out
}
