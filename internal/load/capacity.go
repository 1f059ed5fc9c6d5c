package load

import (
	"context"
	"fmt"
	"io"
)

// CapacityConfig drives the capacity search: soak at rising rates. Each
// step is one phase of the schedule in RunConfig at a higher rate, and
// the search stops at the first step its gate fails; the last passing
// step is the box's sustainable capacity under the objectives.
type CapacityConfig struct {
	// RunConfig is the first step: its Schedule.Rate starts the
	// staircase and its Schedule.Duration is every step's length.
	RunConfig
	// MaxQPS bounds the search (default 4096x the first step's rate); a
	// ceiling below the first step's rate is an error, not an empty search.
	MaxQPS float64
	// Factor multiplies the rate between steps (default 2; values closer
	// to 1 trade wall clock for resolution, and 1 or less is an error).
	Factor float64
	// Objectives are the client-side bars every step's gate holds, as in
	// Gate.Objectives.
	Objectives []Objective
}

// CapacityResult is the search outcome: the max rate the box sustained
// under the objectives, what it achieved there, and every step walked.
type CapacityResult struct {
	MaxSustainableQPS float64   `json:"max_sustainable_qps"`
	AchievedAtMaxQPS  float64   `json:"achieved_at_max_qps"`
	Steps             []*Result `json:"steps"`
}

// maxShedFrac caps shed answers over all completions in a capacity
// step: a box shedding its way through the load is not "holding" it,
// though a soak rightly counts sheds as admission policy.
const maxShedFrac = 0.05

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.MaxQPS <= 0 {
		c.MaxQPS = 4096 * c.Schedule.Rate
	}
	if c.Factor == 0 {
		c.Factor = 2
	}
	if c.Report == nil {
		c.Report = io.Discard
	}
	return c
}

// SearchCapacity walks the rate staircase and reports the maximum
// sustainable QPS under the objectives. The search stops at the first
// failing step (service time only degrades with offered load, so later
// steps cannot pass) or at MaxQPS. A step cut short by ctx is not
// judged: the search returns ctx's error, sustaining nothing more.
func SearchCapacity(ctx context.Context, cfg CapacityConfig) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Factor <= 1 {
		return nil, fmt.Errorf("load: capacity factor %g must be above 1, or the rate never rises", cfg.Factor)
	}
	if cfg.MaxQPS < cfg.Schedule.Rate {
		return nil, fmt.Errorf("load: capacity ceiling %g qps is below the first step's %g qps, so no step would run", cfg.MaxQPS, cfg.Schedule.Rate)
	}
	out := &CapacityResult{}
	for rate := cfg.Schedule.Rate; rate <= cfg.MaxQPS; rate *= cfg.Factor {
		step := cfg.RunConfig
		step.Schedule.Rate = rate
		fmt.Fprintf(cfg.Report, "emload: capacity step %.1f qps (%v)\n", rate, step.Schedule.Duration)
		res, err := Run(ctx, step)
		if err != nil {
			return out, err
		}
		res.Gate = judgeStep(cfg.Objectives, res)
		out.Steps = append(out.Steps, res)
		fmt.Fprintf(cfg.Report, "emload: capacity step %.1f qps -> %s (achieved %.1f qps, p99 %s)\n",
			rate, res.Gate.verdict(), res.AchievedQPS, fmtMS(res.Latency.P99MS))
		if !res.Gate.Pass {
			break
		}
		out.MaxSustainableQPS = rate
		out.AchievedAtMaxQPS = res.AchievedQPS
	}
	return out, nil
}

// judgeStep is a capacity step's verdict: the gate over the objectives,
// plus the step's own bars — something must complete, and at most
// maxShedFrac of it may be shed.
func judgeStep(objectives []Objective, res *Result) *GateResult {
	g := Gate{Objectives: objectives}.Evaluate(res)
	if res.Completed == 0 {
		g.check("completed", false, "no requests completed")
		return g
	}
	shed := res.Classes[ClassShed]
	g.check("shed", float64(shed) <= maxShedFrac*float64(res.Completed),
		"%d of %d answers shed (allowed %.0f%%)", shed, res.Completed, 100*maxShedFrac)
	return g
}
