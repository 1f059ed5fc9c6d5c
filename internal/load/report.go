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

// Summary is emload's machine-readable output: one JSON document per
// run, whatever the mode.
type Summary struct {
	GeneratedBy string `json:"generated_by"`
	Mode        string `json:"mode"`
	Target      string `json:"target,omitempty"`
	// Pass mirrors the process exit: false when any gate check failed.
	Pass bool `json:"pass"`
	// Phases holds soak's one phase; capacity's steps sit in its own
	// result, so every phase is written once.
	Phases []*Result       `json:"phases,omitempty"`
	Capac  *CapacityResult `json:"capacity,omitempty"`
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
