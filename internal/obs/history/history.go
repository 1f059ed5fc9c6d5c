// Package history is the run-history half of quality observability: an
// append-only JSONL store of run reports (one compact JSON document per
// line) plus the report-diffing machinery behind the emmonitor CLI. A
// deployed matcher appends every run's report; cron/CI then asks "how
// does today's run compare to yesterday's?" (Diff) and "has quality
// degraded past the thresholds?" (the drift package's Evaluate over the
// embedded profiles).
//
// Appends are O_APPEND writes of a single line followed by fsync, so
// concurrent runs on one machine interleave whole records and a crash
// can only lose or truncate the final line — List skips lines that do
// not parse rather than failing the whole history.
package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"

	"emgo/internal/obs"
)

// FileName is the history file inside a store directory.
const FileName = "runs.jsonl"

// Store is an append-only run-report history rooted at a directory.
type Store struct {
	path string
}

// Open creates (if needed) the store directory and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return &Store{path: filepath.Join(dir, FileName)}, nil
}

// Path returns the underlying JSONL file path.
func (s *Store) Path() string { return s.path }

// Append writes one report as a single JSONL line and fsyncs it. The
// report is marshaled compactly; a report that cannot be marshaled is an
// error, never a partial line.
func (s *Store) Append(rep *obs.Report) error {
	if rep == nil {
		return fmt.Errorf("history: nil report")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("history: marshal report: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("history: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("history: sync: %w", err)
	}
	return nil
}

// List returns every parseable report in append order. Corrupt lines
// (a crash-truncated tail, an interleaved partial write) are skipped,
// not fatal; their count is returned so callers can surface it.
func (s *Store) List() ([]*obs.Report, int, error) {
	f, err := os.Open(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	var out []*obs.Report
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rep := &obs.Report{}
		if err := json.Unmarshal(line, rep); err != nil {
			skipped++
			continue
		}
		out = append(out, rep)
	}
	if err := sc.Err(); err != nil {
		return out, skipped, fmt.Errorf("history: scan: %w", err)
	}
	return out, skipped, nil
}

// Last returns the most recent report, or nil when the history is empty.
func (s *Store) Last() (*obs.Report, error) {
	reps, _, err := s.List()
	if err != nil {
		return nil, err
	}
	if len(reps) == 0 {
		return nil, nil
	}
	return reps[len(reps)-1], nil
}

// DeltaRow is one changed value in a report diff.
type DeltaRow struct {
	// Name identifies the value ("stage.blocked duration_ms",
	// "counter ml.predictions", "histogram workflow.stage_ms p99").
	Name string `json:"name"`
	// A and B are the values in the two reports (NaN renders as "-"
	// when the value is absent on one side).
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// Delta returns B - A (0 when either side is absent).
func (r DeltaRow) Delta() float64 {
	if math.IsNaN(r.A) || math.IsNaN(r.B) {
		return 0
	}
	return r.B - r.A
}

// Diff is the comparison of two run reports.
type Diff struct {
	// NameA/NameB identify the two runs.
	NameA string `json:"name_a"`
	NameB string `json:"name_b"`
	// OutcomeA/OutcomeB are the run outcomes.
	OutcomeA string `json:"outcome_a"`
	OutcomeB string `json:"outcome_b"`
	// VerdictA/VerdictB are the quality verdicts ("" when a run had no
	// quality section).
	VerdictA string `json:"verdict_a"`
	VerdictB string `json:"verdict_b"`
	// Stages are per-stage wall-time changes (from the span trees).
	Stages []DeltaRow `json:"stages,omitempty"`
	// Counters are metric counter changes.
	Counters []DeltaRow `json:"counters,omitempty"`
	// Quantiles are histogram percentile changes (p50/p90/p99/p99.9/max).
	Quantiles []DeltaRow `json:"quantiles,omitempty"`
	// Signals are quality-signal value changes.
	Signals []DeltaRow `json:"signals,omitempty"`
}

// stagesOf is a report's span tree as name → duration, the root — the
// first occurrence of its own name — included.
func stagesOf(root *obs.SpanData) map[string]float64 {
	out := map[string]float64{}
	if root != nil {
		maps.Copy(out, root.StageDurations())
		out[root.Name] = root.DurationMS
	}
	return out
}

// deltas builds sorted DeltaRows from two name → value maps, keeping
// rows where the value changed or exists on only one side.
func deltas(prefix string, a, b map[string]float64) []DeltaRow {
	names := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		names[k] = struct{}{}
	}
	for k := range b {
		names[k] = struct{}{}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []DeltaRow
	for _, k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok {
			av = math.NaN()
		}
		if !bok {
			bv = math.NaN()
		}
		if aok && bok && av == bv {
			continue
		}
		out = append(out, DeltaRow{Name: prefix + k, A: av, B: bv})
	}
	return out
}

// DiffReports compares two run reports: stage wall times, counters,
// histogram percentiles, and quality signals.
func DiffReports(a, b *obs.Report) *Diff {
	d := &Diff{NameA: a.Name, NameB: b.Name, OutcomeA: a.Outcome, OutcomeB: b.Outcome}

	d.Stages = deltas("", stagesOf(a.Trace), stagesOf(b.Trace))

	ca := map[string]float64{}
	cb := map[string]float64{}
	if a.Metrics != nil {
		for k, v := range a.Metrics.Counters {
			ca[k] = float64(v)
		}
	}
	if b.Metrics != nil {
		for k, v := range b.Metrics.Counters {
			cb[k] = float64(v)
		}
	}
	d.Counters = deltas("", ca, cb)

	qa := map[string]float64{}
	qb := map[string]float64{}
	quantiles := func(m *obs.MetricsSnapshot, into map[string]float64) {
		if m == nil {
			return
		}
		for k, h := range m.Histograms {
			if h.Count == 0 {
				continue
			}
			into[k+" p50"] = h.P50
			into[k+" p90"] = h.P90
			into[k+" p99"] = h.P99
			into[k+" p99.9"] = h.P999
			into[k+" max"] = h.Max
		}
	}
	quantiles(a.Metrics, qa)
	quantiles(b.Metrics, qb)
	d.Quantiles = deltas("", qa, qb)

	ga := map[string]float64{}
	gb := map[string]float64{}
	if a.Quality != nil {
		d.VerdictA = a.Quality.Verdict
		for _, s := range a.Quality.Signals {
			ga[s.Name] = s.Value
		}
	}
	if b.Quality != nil {
		d.VerdictB = b.Quality.Verdict
		for _, s := range b.Quality.Signals {
			gb[s.Name] = s.Value
		}
	}
	d.Signals = deltas("", ga, gb)
	return d
}

// renderVal renders one side of a delta row ("-" for absent).
func renderVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%g", v)
}

// Render writes the diff as an aligned human-readable table.
func (d *Diff) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "run A: %s (outcome %s", d.NameA, d.OutcomeA); err != nil {
		return err
	}
	if d.VerdictA != "" {
		fmt.Fprintf(w, ", quality %s", d.VerdictA) //nolint:errcheck
	}
	fmt.Fprintf(w, ")\nrun B: %s (outcome %s", d.NameB, d.OutcomeB) //nolint:errcheck
	if d.VerdictB != "" {
		fmt.Fprintf(w, ", quality %s", d.VerdictB) //nolint:errcheck
	}
	if _, err := fmt.Fprintln(w, ")"); err != nil {
		return err
	}
	section := func(title string, rows []DeltaRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s:\n", title) //nolint:errcheck
		for _, r := range rows {
			fmt.Fprintf(w, "  %-44s %12s -> %-12s (%+g)\n", //nolint:errcheck
				r.Name, renderVal(r.A), renderVal(r.B), r.Delta())
		}
	}
	section("stage wall time (ms)", d.Stages)
	section("counters", d.Counters)
	section("histogram percentiles", d.Quantiles)
	section("quality signals", d.Signals)
	if len(d.Stages)+len(d.Counters)+len(d.Quantiles)+len(d.Signals) == 0 {
		if _, err := fmt.Fprintln(w, "no differences"); err != nil {
			return err
		}
	}
	return nil
}
