package load

import (
	"context"
	"fmt"
	"io"
	"time"
)

// CapacityConfig drives the stepped-QPS capacity search: run the open
// loop at increasing rates until a step misses the latency target or
// burns too many errors; the last passing step is the box's sustainable
// capacity at that target.
type CapacityConfig struct {
	// StartQPS is the first step's rate (default 5).
	StartQPS float64
	// MaxQPS bounds the search (default 4096 * StartQPS).
	MaxQPS float64
	// Factor multiplies the rate between steps (default 2; values closer
	// to 1 trade wall clock for resolution).
	Factor float64
	// StepDuration is how long each step runs (default 10s). The whole
	// step counts; make steps long enough to amortize cold starts.
	StepDuration time.Duration
	// P99TargetMS is the latency bar a step must hold (default 500).
	P99TargetMS float64
	// Schedule is the per-step schedule template; Rate and Duration are
	// overwritten per step. Client, Pool, Report, and ReportEvery behave
	// as in RunConfig.
	Schedule    ScheduleConfig
	Client      ClientConfig
	Pool        *RecordPool
	ReportEvery time.Duration
	Report      io.Writer
}

// CapacityStep is one step's verdict.
type CapacityStep struct {
	TargetQPS   float64        `json:"target_qps"`
	AchievedQPS float64        `json:"achieved_qps"`
	Latency     LatencySummary `json:"latency"`
	Bad         int64          `json:"bad"`
	Shed        int64          `json:"shed"`
	Completed   int64          `json:"completed"`
	Pass        bool           `json:"pass"`
	Reason      string         `json:"reason,omitempty"`
}

// CapacityResult is the search outcome: the staircase walked and the
// max rate the box sustained at the p99 target.
type CapacityResult struct {
	P99TargetMS       float64        `json:"p99_target_ms"`
	StepDurationS     float64        `json:"step_duration_s"`
	MaxSustainableQPS float64        `json:"max_sustainable_qps"`
	AchievedAtMaxQPS  float64        `json:"achieved_at_max_qps"`
	P99AtMaxMS        float64        `json:"p99_at_max_ms"`
	Steps             []CapacityStep `json:"steps"`
}

// A step also fails on errors: maxBadFrac caps bad answers (Result.bad)
// over non-shed completions, maxShedFrac caps shed answers over all
// completions — a box serving 1% of offered load at great latency is not
// "holding" that load.
const (
	maxBadFrac  = 0.01
	maxShedFrac = 0.05
)

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.StartQPS <= 0 {
		c.StartQPS = 5
	}
	if c.MaxQPS <= 0 {
		c.MaxQPS = 4096 * c.StartQPS
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 10 * time.Second
	}
	if c.P99TargetMS <= 0 {
		c.P99TargetMS = 500
	}
	if c.Report == nil {
		c.Report = io.Discard
	}
	return c
}

// SearchCapacity walks the rate staircase and reports the maximum
// sustainable QPS at the configured p99 target. The search stops at the
// first failing step (service time only degrades with offered load, so
// later steps cannot pass) or at MaxQPS.
func SearchCapacity(ctx context.Context, cfg CapacityConfig) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	out := &CapacityResult{
		P99TargetMS:   cfg.P99TargetMS,
		StepDurationS: cfg.StepDuration.Seconds(),
	}
	for rate := cfg.StartQPS; rate <= cfg.MaxQPS; rate *= cfg.Factor {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		sched := cfg.Schedule
		sched.Rate = rate
		sched.Duration = cfg.StepDuration
		fmt.Fprintf(cfg.Report, "emload: capacity step %.1f qps (%v)\n", rate, cfg.StepDuration)
		res, err := Run(ctx, RunConfig{
			Schedule:    sched,
			Client:      cfg.Client,
			Pool:        cfg.Pool,
			ReportEvery: cfg.ReportEvery,
			Report:      cfg.Report,
		})
		if err != nil && res == nil {
			return out, err
		}
		step := evaluateStep(cfg, rate, res)
		out.Steps = append(out.Steps, step)
		fmt.Fprintf(cfg.Report, "emload: capacity step %.1f qps -> %s\n", rate, stepVerdict(step))
		if !step.Pass {
			break
		}
		out.MaxSustainableQPS = rate
		out.AchievedAtMaxQPS = step.AchievedQPS
		out.P99AtMaxMS = step.Latency.P99MS
	}
	return out, nil
}

// evaluateStep judges one step against the capacity bars.
func evaluateStep(cfg CapacityConfig, rate float64, res *Result) CapacityStep {
	step := CapacityStep{
		TargetQPS:   rate,
		AchievedQPS: res.AchievedQPS,
		Latency:     latencySummary(res.Hist),
		Completed:   res.Completed,
		Shed:        res.Classes[ClassShed],
		Bad:         res.bad(),
		Pass:        true,
	}
	nonShed := res.Completed - step.Shed
	switch {
	case res.Completed == 0:
		step.Pass, step.Reason = false, "no requests completed"
	case step.Latency.P99MS > cfg.P99TargetMS:
		step.Pass = false
		step.Reason = fmt.Sprintf("p99 %s over target %s", fmtMS(step.Latency.P99MS), fmtMS(cfg.P99TargetMS))
	case nonShed > 0 && float64(step.Bad)/float64(nonShed) > maxBadFrac:
		step.Pass = false
		step.Reason = fmt.Sprintf("%d bad of %d non-shed answers over the %.1f%% budget", step.Bad, nonShed, 100*maxBadFrac)
	case float64(step.Shed)/float64(res.Completed) > maxShedFrac:
		step.Pass = false
		step.Reason = fmt.Sprintf("%d of %d answers shed over the %.1f%% budget", step.Shed, res.Completed, 100*maxShedFrac)
	case res.Scheduled > 0 && float64(res.Dropped)/float64(res.Scheduled) > maxDropFrac:
		step.Pass = false
		step.Reason = fmt.Sprintf("generator dropped %d arrivals; measurement untrustworthy", res.Dropped)
	}
	return step
}

func stepVerdict(s CapacityStep) string {
	if s.Pass {
		return fmt.Sprintf("pass (p99 %s, %d shed, %d bad)", fmtMS(s.Latency.P99MS), s.Shed, s.Bad)
	}
	return "FAIL: " + s.Reason
}
