package load

import (
	"context"
	"fmt"
	"time"

	"emgo/internal/obs/slo"
)

// Gate is the soak-mode assertion set: client-side objectives computed
// from the run's own accounting, plus server-side checks read back from
// /v1/status. A soak passes only when every check passes — the harness
// exits non-zero otherwise, which is what makes it a CI gate rather
// than a report.
type Gate struct {
	// Objectives are client-side reliability targets, in the same syntax
	// the server's -slo flag takes (slo.ParseObjectives). Availability is
	// judged over non-shed completions (sheds are admission policy, not
	// failures); latency objectives are judged over every completed
	// request — a shed answer is an answer the client waited for.
	Objectives []slo.Objective
	// CheckServer, when set, also fetches /v1/status from this client
	// and fails the gate when the server reports a breached SLO.
	CheckServer *Client
}

// maxDropFrac caps the fraction of arrivals the generator itself dropped
// at the outstanding cap, in the gate and in each capacity step; past it
// the measurement is not trustworthy.
// The gate's other bars are zero: no unexpected answer (a 200 to a
// malformed body is a bug, not noise), no shed answer without a
// Retry-After hint, no failed blend-submitted job.
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

// Evaluate judges one finished load phase against the gate.
func (gate Gate) Evaluate(ctx context.Context, res *Result) *GateResult {
	out := &GateResult{Pass: true}

	bad := res.bad()
	nonShed := res.Completed - res.Classes[ClassShed]

	for _, o := range gate.Objectives {
		switch o.Kind {
		case slo.KindAvailability:
			if nonShed == 0 {
				out.check(o.Name, false, "no non-shed requests completed")
				continue
			}
			okFrac := 100 * float64(nonShed-bad) / float64(nonShed)
			out.check(o.Name, okFrac >= o.Target,
				"%.3f%% ok (want >= %.3f%%; %d bad of %d non-shed)", okFrac, o.Target, bad, nonShed)
		case slo.KindLatency:
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
	if res.JobsSubmitted > 0 {
		out.check("jobs", res.JobsFailed == 0,
			"%d of %d async job(s) failed (allowed 0)", res.JobsFailed, res.JobsSubmitted)
	}
	if res.Scheduled > 0 {
		dropFrac := float64(res.Dropped) / float64(res.Scheduled)
		out.check("generator_drops", dropFrac <= maxDropFrac,
			"dropped %.2f%% of arrivals at the outstanding cap (allowed %.2f%%)", 100*dropFrac, 100*maxDropFrac)
	}

	if gate.CheckServer != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		st, err := gate.CheckServer.Status(sctx)
		switch {
		case err != nil:
			out.check("server_status", false, "fetch /v1/status: %v", err)
		default:
			if st.SLO != nil {
				detail := "error budget holds"
				for _, o := range st.SLO.Objectives {
					if o.Breached {
						detail = fmt.Sprintf("objective %s breached (fast %.1fx / slow %.1fx)", o.Name, o.FastBurn, o.SlowBurn)
					}
				}
				out.check("server_slo", !st.SLO.Breached, "%s", detail)
			}
		}
	}
	return out
}
