package load

import (
	"encoding/json"
	"io"

	"emgo/internal/obs"
)

// LatencySummary is the headline latency numbers in milliseconds,
// coordinated-omission-corrected (charged from scheduled send times).
type LatencySummary struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// latencySummary distills a histogram snapshot.
func latencySummary(h obs.HistogramSnapshot) LatencySummary {
	ls := LatencySummary{
		P50MS:  h.Quantile(0.50),
		P90MS:  h.Quantile(0.90),
		P99MS:  h.Quantile(0.99),
		P999MS: h.Quantile(0.999),
		MaxMS:  h.Max,
	}
	if h.Count > 0 {
		ls.MeanMS = h.Sum / float64(h.Count)
	}
	return ls
}

// PhaseSummary is one load phase rendered for the machine-readable
// summary document.
type PhaseSummary struct {
	Name        string           `json:"name,omitempty"`
	Profile     string           `json:"profile"`
	TargetQPS   float64          `json:"target_qps"`
	DurationS   float64          `json:"duration_s"`
	Seed        int64            `json:"seed"`
	Blend       string           `json:"blend"`
	Scheduled   int64            `json:"scheduled"`
	Sent        int64            `json:"sent"`
	Completed   int64            `json:"completed"`
	Dropped     int64            `json:"dropped,omitempty"`
	Unsent      int64            `json:"unsent,omitempty"`
	OfferedQPS  float64          `json:"offered_qps"`
	AchievedQPS float64          `json:"achieved_qps"`
	Classes     map[string]int64 `json:"classes"`
	Kinds       map[Kind]int64   `json:"kinds"`
	Degraded    int64            `json:"degraded"`
	// ShedMissingRetryAfter counts contract violations: a 429/503 shed
	// answer with no Retry-After hint.
	ShedMissingRetryAfter int64                 `json:"shed_missing_retry_after"`
	Retries               int64                 `json:"retries,omitempty"`
	JobsSubmitted         int64                 `json:"jobs_submitted,omitempty"`
	JobsCompleted         int64                 `json:"jobs_completed,omitempty"`
	JobsFailed            int64                 `json:"jobs_failed,omitempty"`
	Latency               LatencySummary        `json:"latency"`
	Histogram             obs.HistogramSnapshot `json:"histogram"`
}

// NewPhaseSummary renders one phase result against the schedule that
// produced it.
func NewPhaseSummary(name string, cfg ScheduleConfig, res *Result) PhaseSummary {
	cfg = cfg.withDefaults()
	blend := cfg.Blend
	if blend.total() == 0 {
		blend = Blend{Single: 1}
	}
	return PhaseSummary{
		Name:                  name,
		Profile:               cfg.Profile,
		TargetQPS:             cfg.Rate,
		DurationS:             cfg.Duration.Seconds(),
		Seed:                  cfg.Seed,
		Blend:                 blend.String(),
		Scheduled:             res.Scheduled,
		Sent:                  res.Sent,
		Completed:             res.Completed,
		Dropped:               res.Dropped,
		Unsent:                res.Unsent,
		OfferedQPS:            res.OfferedQPS,
		AchievedQPS:           res.AchievedQPS,
		Classes:               res.Classes,
		Kinds:                 res.Kinds,
		Degraded:              res.Degraded,
		ShedMissingRetryAfter: res.ShedNoRetryAfter,
		Retries:               res.Retries,
		JobsSubmitted:         res.JobsSubmitted,
		JobsCompleted:         res.JobsCompleted,
		JobsFailed:            res.JobsFailed,
		Latency:               latencySummary(res.Hist),
		Histogram:             res.Hist,
	}
}

// Summary is emload's machine-readable output: one JSON document per
// run, whatever the mode.
type Summary struct {
	GeneratedBy string `json:"generated_by"`
	Mode        string `json:"mode"`
	Target      string `json:"target,omitempty"`
	// Pass mirrors the process exit: false when any gate check failed.
	Pass   bool            `json:"pass"`
	Phases []PhaseSummary  `json:"phases,omitempty"`
	Gate   *GateResult     `json:"gate,omitempty"`
	Capac  *CapacityResult `json:"capacity,omitempty"`
	Chaos  *ChaosResult    `json:"chaos,omitempty"`
}

// Write renders the summary as indented JSON.
func (s *Summary) Write(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
