// Package drift is the quality-observability layer for deployed
// matchers: it answers the question PR 2's runtime observability leaves
// open — not "did the run finish?" but "can the run be trusted?". The
// paper ends (Section 12) with the matcher packaged and moved into the
// UMETRICS repository "to do matching for other data slices"; nothing in
// the paper tells the team when a new slice has drifted far enough from
// the training slice that the reported 94-100% precision no longer
// holds. This package closes that gap:
//
//   - At train time a Builder makes a compact statistical Profile of
//     the run's result: per-feature value reservoirs and null rates,
//     token-count and length distributions over the input tables'
//     string attributes, the prediction-score distribution, blocking
//     coverage, and candidate-set size per input row. The profile rides
//     in that run's report (quality.profile), and the report is the
//     baseline the deployment is trusted against.
//   - On every deployed run the same builder profiles the live slice
//     into that run's report, and Evaluate (which emmonitor check calls)
//     scores the live profile against the baseline's:
//     population stability index (PSI) and two-sample Kolmogorov-
//     Smirnov statistics per distribution, null-rate, blocking-coverage
//     and match-rate deltas, plus a Corleone-style estimated accuracy
//     (internal/estimate) discounted by the observed drift.
package drift

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// DefaultSampleCap is the reservoir capacity per tracked distribution.
// Slices smaller than the cap are captured exactly (which makes an
// identical re-run score zero drift); larger slices are uniformly
// subsampled.
const DefaultSampleCap = 1024

// sampleSeed seeds the generator a Builder subsamples with.
const sampleSeed = 0

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
	// Name is the feature's name in the set.
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
// run. It travels as JSON inside a run report's quality section.
type Profile struct {
	Version int `json:"version"`
	// Name identifies the workflow that produced the profile.
	Name string `json:"name,omitempty"`
	// CreatedAt is when the profile was built.
	CreatedAt time.Time `json:"created_at"`
	// SampleCap is the reservoir capacity the profile was built with.
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

// ParseProfile parses a profile's JSON.
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

// reservoir is a uniform sample of at most DefaultSampleCap values
// (Vitter's algorithm R).
type reservoir struct {
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
	if len(r.values) < DefaultSampleCap {
		r.values = append(r.values, v)
		return
	}
	if j := rng.Int63n(r.seen - r.nulls); j < DefaultSampleCap {
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

// Builder assembles the Profile of one finished run from what the run
// produced. It is fed serially, in the run's pair order, from one seeded
// generator, so a rerun over the same inputs builds the same profile —
// above the sample cap too.
type Builder struct {
	rng      *rand.Rand
	names    []string
	features []reservoir
	scores   reservoir
	preds    int64
	matches  int64
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{rng: rand.New(rand.NewSource(sampleSeed))}
}

// ObserveVectors records the raw feature vectors of the decided pairs,
// one row a pair, under the names of their columns: each element feeds
// its feature's reservoir, NaN counting as a missing value.
func (b *Builder) ObserveVectors(names []string, x [][]float64) {
	b.names = names
	b.features = make([]reservoir, len(names))
	for _, row := range x {
		for k, v := range row {
			b.features[k].observe(v, v != v, b.rng) // v != v is NaN
		}
	}
}

// ObserveScore records a probabilistic matcher's score for one pair.
func (b *Builder) ObserveScore(score float64) {
	b.scores.observe(score, score != score, b.rng)
}

// CountPredictions records how many pairs the matcher decided and how
// many of them it matched.
func (b *Builder) CountPredictions(predicted, matches int) {
	b.preds, b.matches = int64(predicted), int64(matches)
}

// ObserveTable profiles every string column of t under the given side
// label ("left"/"right"): token counts, value lengths, and null rates.
func (b *Builder) ObserveTable(side string, t *table.Table) []ColumnProfile {
	tok := tokenize.Word{}
	schema := t.Schema()
	var out []ColumnProfile
	for j := 0; j < schema.Len(); j++ {
		f := schema.Field(j)
		if f.Kind != table.String {
			continue
		}
		var tokens, lengths reservoir
		for i := 0; i < t.Len(); i++ {
			v := t.Row(i)[j]
			if v.IsNull() {
				tokens.observe(0, true, b.rng)
				lengths.observe(0, true, b.rng)
				continue
			}
			s := v.Str()
			tokens.observe(float64(len(tok.Tokens(s))), false, b.rng)
			lengths.observe(float64(len(s)), false, b.rng)
		}
		out = append(out, ColumnProfile{
			Side: side, Column: f.Name,
			Tokens: tokens.sample(), Lengths: lengths.sample(),
		})
	}
	return out
}

// Profile assembles the recorded statistics into a Profile. The
// candidate-coverage inputs come from the workflow (per-left-row
// candidate counts); columns from prior ObserveTable calls are passed
// back in by the caller.
func (b *Builder) Profile(name string, leftRows, rightRows int, perRow []int, columns []ColumnProfile) *Profile {
	p := &Profile{
		Version:   profileVersion,
		Name:      name,
		CreatedAt: time.Now(),
		SampleCap: DefaultSampleCap,
		LeftRows:  leftRows,
		RightRows: rightRows,
		Columns:   columns,
		Scores:    b.scores.sample(),
		Predicted: b.preds, PredictedMatches: b.matches,
	}
	for i := range b.features {
		p.Features = append(p.Features, FeatureProfile{Name: b.names[i], Sample: b.features[i].sample()})
	}
	var cand reservoir
	covered := 0
	for _, n := range perRow {
		cand.observe(float64(n), false, b.rng)
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
