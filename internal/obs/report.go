package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ProvEntry is one provenance record: what a workflow step did, to how
// many items, and how it ended. A workflow.Log holds them while the run
// goes; the run report carries the same values.
type ProvEntry struct {
	Step   string `json:"step"`
	Detail string `json:"detail,omitempty"`
	Count  int    `json:"count"`
	// Outcome is how the step ended; empty means OutcomeOK.
	Outcome string `json:"outcome,omitempty"`
}

// Report is the machine-readable record of one pipeline run: the span
// tree, the metrics snapshot, the provenance log, and the overall
// outcome, in one JSON document. It is what -report flags write and what
// future perf work diffs against.
type Report struct {
	// Name identifies the run (workflow name, binary name).
	Name string `json:"name"`
	// StartedAt / FinishedAt bound the run's wall time.
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// Outcome is ok or aborted.
	Outcome string `json:"outcome"`
	// Error is the run's terminal error, when it aborted.
	Error string `json:"error,omitempty"`
	// Trace is the span tree (nil when no trace was active).
	Trace *SpanData `json:"trace,omitempty"`
	// Metrics is the registry snapshot at the end of the run (nil when
	// metrics were disabled).
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// Provenance is the workflow log: step, detail, count, outcome.
	Provenance []ProvEntry `json:"provenance,omitempty"`
	// Quality is the drift assessment of a monitored run (nil when the
	// run was not checked against a baseline). The schema is neutral —
	// internal/drift fills it — so reports stay parseable without that
	// package.
	Quality *QualityData `json:"quality,omitempty"`
}

// NewReport is the record of a run that has just ended, as whoever ran it
// saw it: ok, or aborted with err, over root's span tree and — when the
// registry is on — the metrics as they stand. A pipeline that knows more
// (provenance, quality) adds it to the result.
func NewReport(name string, started time.Time, root *Span, err error) *Report {
	rep := &Report{
		Name: name, StartedAt: started, FinishedAt: time.Now(),
		Outcome: OutcomeOK, Trace: root.Snapshot(),
	}
	if err != nil {
		rep.Outcome, rep.Error = OutcomeAborted, err.Error()
	}
	if Enabled() {
		snap := Default().Snapshot()
		rep.Metrics = &snap
	}
	return rep
}

// QualitySignal is one scored drift indicator in a run report.
type QualitySignal struct {
	// Name identifies the signal ("psi.feature.X", "coverage_drop", ...).
	Name string `json:"name"`
	// Value is the observed statistic; Warn and Fail are the thresholds
	// it was judged against; Status is ok, warn, or fail.
	Value  float64 `json:"value"`
	Warn   float64 `json:"warn"`
	Fail   float64 `json:"fail"`
	Status string  `json:"status"`
}

// QualityData is the quality-observability section of a run report:
// the drift verdict of a deployed run against its training baseline,
// the signals behind it, the drift-discounted accuracy estimate, and
// the live statistical profile (schema owned by internal/drift, embedded
// raw so it round-trips untouched).
type QualityData struct {
	// Verdict is ok, warn, or fail — the worst signal status.
	Verdict string `json:"verdict"`
	// Signals are the scored drift indicators, headline entries first.
	Signals []QualitySignal `json:"signals,omitempty"`
	// EstimatedPrecision is [lo, point, hi] in [0,1] — the
	// Corleone-style estimate widened by the observed drift.
	EstimatedPrecision []float64 `json:"estimated_precision,omitempty"`
	// Profile is the live drift profile (internal/drift schema).
	Profile json.RawMessage `json:"profile,omitempty"`
}

// Marshal renders the report as indented JSON.
func (r *Report) Marshal() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseReport parses a report produced by Marshal; the two round-trip.
func ParseReport(data []byte) (*Report, error) {
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("obs: parse report: %w", err)
	}
	return r, nil
}

// WriteFile writes the report to path as JSON; "-" writes it to stdout.
func (r *Report) WriteFile(path string, stdout io.Writer) error {
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	return writeDoc(path, stdout, data)
}

// WriteFile writes the span tree to path as JSON; "-" writes it to stdout.
func (d *SpanData) WriteFile(path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return writeDoc(path, stdout, data)
}

func writeDoc(path string, stdout io.Writer, data []byte) error {
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
