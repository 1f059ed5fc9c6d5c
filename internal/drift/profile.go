// Package drift is the quality-observability layer for deployed
// matchers: it answers the question PR 2's runtime observability leaves
// open — not "did the run finish?" but "can the run be trusted?". The
// paper ends (Section 12) with the matcher packaged and moved into the
// UMETRICS repository "to do matching for other data slices"; nothing in
// the paper tells the team when a new slice has drifted far enough from
// the training slice that the reported 94-100% precision no longer
// holds. This package closes that gap:
//
//   - At train time a Collector captures a compact statistical Profile
//     of the run: per-feature value reservoirs and null rates,
//     token-count and length distributions over the input tables'
//     string attributes, the prediction-score distribution, blocking
//     coverage, and candidate-set size per input row. The profile is
//     persisted with the internal/ckpt atomic-write machinery as the
//     baseline the deployment is trusted against.
//   - On every deployed run the same collector profiles the live slice,
//     and Evaluate scores the live profile against the baseline:
//     population stability index (PSI) and two-sample Kolmogorov-
//     Smirnov statistics per distribution, null-rate, blocking-coverage
//     and match-rate deltas, plus a Corleone-style estimated accuracy
//     (internal/estimate) discounted by the observed drift.
//
// Hot-loop safety follows internal/obs: the nil *Collector is valid and
// every method on it is a single nil-check no-op, so the disabled path
// costs what a disabled obs.Counter costs. Instrumented loops fetch the
// collector once per stage from the context (FromContext) and call one
// Observe per row when armed.
package drift

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// DefaultSampleCap is the reservoir capacity per tracked distribution.
// Slices smaller than the cap are captured exactly (which makes an
// identical re-run score zero drift); larger slices are uniformly
// subsampled.
const DefaultSampleCap = 1024

// profileVersion is bumped when the Profile schema changes shape.
const profileVersion = 1

// Sample is one captured distribution: a uniform reservoir of observed
// values plus the counts needed for rates (total observations and how
// many were null/missing). Values is kept sorted in the marshaled form.
type Sample struct {
	// Count is every observation offered, null or not.
	Count int64 `json:"count"`
	// Nulls is how many observations were missing (NaN features, null
	// cells).
	Nulls int64 `json:"nulls,omitempty"`
	// Values is the reservoir over the non-null observations.
	Values []float64 `json:"values,omitempty"`
}

// NullRate returns Nulls/Count (0 when nothing was observed).
func (s *Sample) NullRate() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Nulls) / float64(s.Count)
}

// Mean returns the mean of the reservoir (0 when empty).
func (s *Sample) Mean() float64 {
	if s == nil || len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// FeatureProfile is the captured distribution of one feature column of
// the vectorized candidate pairs.
type FeatureProfile struct {
	// Name is the feature name when the caller supplied one
	// (workflow.RunCtx does); otherwise "feature[i]".
	Name string `json:"name"`
	Sample
}

// ColumnProfile is the captured shape of one string attribute of an
// input table: word-token counts and character lengths of non-null
// values, plus the null rate. Blocking lives on these attributes, so a
// shift here predicts blocking-coverage loss before it happens.
type ColumnProfile struct {
	// Side is "left" or "right".
	Side string `json:"side"`
	// Column is the attribute name.
	Column string `json:"column"`
	// Tokens samples the per-value word-token count.
	Tokens Sample `json:"tokens"`
	// Lengths samples the per-value character length.
	Lengths Sample `json:"lengths"`
}

// Profile is the compact statistical fingerprint of one matching run —
// the baseline snapshot at train time, the live profile on a deployed
// run. It is JSON-serializable and persisted atomically (WriteFile).
type Profile struct {
	Version int `json:"version"`
	// Name identifies the workflow that produced the profile.
	Name string `json:"name,omitempty"`
	// CreatedAt is when the profile was built.
	CreatedAt time.Time `json:"created_at"`
	// SampleCap is the reservoir capacity the collector ran with.
	SampleCap int `json:"sample_cap"`

	// LeftRows / RightRows are the input table sizes.
	LeftRows  int `json:"left_rows"`
	RightRows int `json:"right_rows"`

	// Features are the per-feature value distributions and null rates.
	Features []FeatureProfile `json:"features,omitempty"`
	// Columns are the string-attribute shapes of both input tables.
	Columns []ColumnProfile `json:"columns,omitempty"`
	// Scores is the prediction-score distribution (probabilistic
	// matchers only; empty otherwise).
	Scores Sample `json:"scores"`
	// Predicted / PredictedMatches count matcher decisions and how many
	// were matches; their ratio is the match rate.
	Predicted        int64 `json:"predicted"`
	PredictedMatches int64 `json:"predicted_matches"`
	// CandidatesPerRow samples the candidate-set size per left row
	// (zeros included), and Coverage is the fraction of left rows with
	// at least one candidate.
	CandidatesPerRow Sample  `json:"candidates_per_row"`
	Coverage         float64 `json:"coverage"`

	// EstimatedPrecision optionally carries the labeled accuracy
	// estimate of the training run (Section 11) so deployed runs can
	// fold a drift-discounted version of it into their reports.
	// Lo/Point/Hi in [0,1].
	EstimatedPrecision []float64 `json:"estimated_precision,omitempty"`
}

// MatchRate returns PredictedMatches/Predicted (0 when nothing was
// predicted).
func (p *Profile) MatchRate() float64 {
	if p == nil || p.Predicted == 0 {
		return 0
	}
	return float64(p.PredictedMatches) / float64(p.Predicted)
}

// Marshal renders the profile as indented JSON.
func (p *Profile) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseProfile parses a profile produced by Marshal.
func ParseProfile(data []byte) (*Profile, error) {
	p := &Profile{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("drift: parse profile: %w", err)
	}
	if p.Version != profileVersion {
		return nil, fmt.Errorf("drift: profile version %d, want %d", p.Version, profileVersion)
	}
	return p, nil
}

// WriteFile persists the profile with the repository's durability
// protocol: temp file + fsync + atomic rename (internal/ckpt). A crash
// mid-write leaves the previous baseline intact.
func (p *Profile) WriteFile(path string) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(path, append(data, '\n'), 0o644)
}

// LoadProfile reads and parses a profile file.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseProfile(data)
}

// reservoir is a uniform fixed-capacity sample (Vitter's algorithm R).
type reservoir struct {
	cap    int
	seen   int64
	nulls  int64
	values []float64
}

// observe offers one value; NaN counts as null. rng drives replacement
// once the reservoir is full.
func (r *reservoir) observe(v float64, isNull bool, rng *rand.Rand) {
	r.seen++
	if isNull {
		r.nulls++
		return
	}
	if len(r.values) < r.cap {
		r.values = append(r.values, v)
		return
	}
	if j := rng.Int63n(r.seen - r.nulls); j < int64(r.cap) {
		r.values[j] = v
	}
}

// sample exports the reservoir sorted, so identical value sets compare
// equal regardless of arrival order.
func (r *reservoir) sample() Sample {
	out := Sample{Count: r.seen, Nulls: r.nulls}
	if len(r.values) > 0 {
		out.Values = append([]float64(nil), r.values...)
		sort.Float64s(out.Values)
	}
	return out
}

// Collector accumulates a Profile while a run executes. The nil
// collector is valid and every method is a nil-check no-op — the
// disabled path instrumented loops pay. When armed, each Observe is one
// mutex acquisition and a reservoir append.
type Collector struct {
	mu       sync.Mutex
	cap      int
	rng      *rand.Rand
	names    []string
	features []*reservoir
	scores   *reservoir
	preds    int64
	matches  int64
}

// NewCollector returns an armed collector. cap <= 0 selects
// DefaultSampleCap; seed makes reservoir subsampling reproducible.
func NewCollector(cap int, seed int64) *Collector {
	if cap <= 0 {
		cap = DefaultSampleCap
	}
	return &Collector{
		cap:    cap,
		rng:    rand.New(rand.NewSource(seed)),
		scores: &reservoir{cap: cap},
	}
}

// SetFeatureNames records the feature names used to label the profile's
// feature distributions. Safe on nil.
func (c *Collector) SetFeatureNames(names []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.names = append([]string(nil), names...)
	c.mu.Unlock()
}

// ObserveVector records one vectorized candidate pair: each element feeds
// its feature's reservoir, NaN counting as a missing value. A monitored
// run computes every feature (workflow.RunCtx), so every slot is a value.
// Safe on nil (a single nil check).
func (c *Collector) ObserveVector(row []float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for len(c.features) < len(row) {
		c.features = append(c.features, &reservoir{cap: c.cap})
	}
	for k, v := range row {
		c.features[k].observe(v, v != v, c.rng) // v != v is NaN
	}
	c.mu.Unlock()
}

// ObservePrediction records one matcher decision and, when the matcher
// is probabilistic, its score. Safe on nil.
func (c *Collector) ObservePrediction(label int, score float64, scored bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.preds++
	if label == 1 {
		c.matches++
	}
	if scored {
		c.scores.observe(score, score != score, c.rng)
	}
	c.mu.Unlock()
}

// ObserveTable profiles every string column of t under the given side
// label ("left"/"right"): token counts, value lengths, and null rates.
// One pass over the table; called once per run, off the hot path. Safe
// on nil.
func (c *Collector) ObserveTable(side string, t *table.Table) []ColumnProfile {
	if c == nil || t == nil {
		return nil
	}
	tok := tokenize.Word{}
	schema := t.Schema()
	var out []ColumnProfile
	for j := 0; j < schema.Len(); j++ {
		f := schema.Field(j)
		if f.Kind != table.String {
			continue
		}
		tokens := &reservoir{cap: c.cap}
		lengths := &reservoir{cap: c.cap}
		c.mu.Lock()
		for i := 0; i < t.Len(); i++ {
			v := t.Row(i)[j]
			if v.IsNull() {
				tokens.observe(0, true, c.rng)
				lengths.observe(0, true, c.rng)
				continue
			}
			s := v.Str()
			tokens.observe(float64(len(tok.Tokens(s))), false, c.rng)
			lengths.observe(float64(len(s)), false, c.rng)
		}
		c.mu.Unlock()
		out = append(out, ColumnProfile{
			Side: side, Column: f.Name,
			Tokens: tokens.sample(), Lengths: lengths.sample(),
		})
	}
	return out
}

// Profile assembles the collected statistics into a Profile. The
// candidate-coverage inputs come from the workflow (per-left-row
// candidate counts); columns from prior ObserveTable calls are passed
// back in by the caller. Safe on nil (returns nil).
func (c *Collector) Profile(name string, leftRows, rightRows int, perRow []int, columns []ColumnProfile) *Profile {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{
		Version:   profileVersion,
		Name:      name,
		CreatedAt: time.Now(),
		SampleCap: c.cap,
		LeftRows:  leftRows,
		RightRows: rightRows,
		Columns:   columns,
		Scores:    c.scores.sample(),
		Predicted: c.preds, PredictedMatches: c.matches,
	}
	for i, r := range c.features {
		name := fmt.Sprintf("feature[%d]", i)
		if i < len(c.names) {
			name = c.names[i]
		}
		p.Features = append(p.Features, FeatureProfile{Name: name, Sample: r.sample()})
	}
	cand := &reservoir{cap: c.cap}
	covered := 0
	for _, n := range perRow {
		cand.observe(float64(n), false, c.rng)
		if n > 0 {
			covered++
		}
	}
	p.CandidatesPerRow = cand.sample()
	if len(perRow) > 0 {
		p.Coverage = float64(covered) / float64(len(perRow))
	}
	return p
}

// collectorKey threads the armed collector through contexts, mirroring
// the obs span plumbing: instrumentation sites pay one context lookup
// per stage and a nil check per row when no collector is armed.
type collectorKey struct{}

// WithCollector returns a context carrying c.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// FromContext returns the armed collector, or nil.
func FromContext(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}
