package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// Report is the machine-readable record of one pipeline run: the span
// tree (a workflow stage is its stage.<step> span, a pipeline layer's
// pass its block.join, feature.vectorize, ml.predict or ml.fit span:
// wall time, items, outcome) and the overall outcome, in one JSON
// document. It is what -report flags write and what
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
	// Quality is the quality section of a monitored run: its embedded
	// drift profile (nil on an unmonitored run). The schema is neutral —
	// internal/drift fills it — so reports stay parseable without that
	// package.
	Quality *QualityData `json:"quality,omitempty"`
}

// NewReport is the record of a run that has just ended, as whoever ran it
// saw it: ok, or aborted with err, over root's span tree. A pipeline that
// knows more (the quality section) adds it to the result.
func NewReport(name string, started time.Time, root *Span, err error) *Report {
	rep := &Report{
		Name: name, StartedAt: started, FinishedAt: time.Now(),
		Outcome: OutcomeOK, Trace: root.Snapshot(),
	}
	if err != nil {
		rep.Outcome, rep.Error = OutcomeAborted, err.Error()
	}
	return rep
}

// QualityData is the quality section of a monitored run's report: the
// run's statistical profile (schema owned by internal/drift, embedded
// raw so it round-trips untouched). Any report carrying one can be
// emmonitor check's -baseline or its -run.
type QualityData struct {
	// Profile is the run's drift profile (internal/drift schema).
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
