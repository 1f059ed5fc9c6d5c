// Package feature implements PyMatcher's automatic feature generation
// (Section 9, footnote 7): given two tables and a correspondence between
// their columns, it infers each attribute's type and instantiates a set of
// similarity features appropriate for that type (Jaccard over 3-grams,
// edit distance, word-level set similarities, numeric differences, ...).
// It also provides the case-insensitive feature extension added while
// debugging the matcher (Section 9) and mean imputation of missing values
// (the scikit-learn NaN workaround of Section 9).
package feature

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"emgo/internal/block"
	"emgo/internal/obs"
	"emgo/internal/parallel"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// AttrType classifies an attribute for feature selection.
type AttrType int

const (
	// ShortString is a string attribute averaging at most 3 word tokens
	// (codes, names, identifiers).
	ShortString AttrType = iota
	// MediumString averages at most 10 word tokens (titles).
	MediumString
	// LongString is free text beyond 10 tokens.
	LongString
	// Numeric covers int and float attributes.
	Numeric
	// DateAttr covers date attributes.
	DateAttr
	// BoolAttr covers booleans.
	BoolAttr
)

// String returns a readable name for the attribute type.
func (a AttrType) String() string {
	switch a {
	case ShortString:
		return "short_string"
	case MediumString:
		return "medium_string"
	case LongString:
		return "long_string"
	case Numeric:
		return "numeric"
	case DateAttr:
		return "date"
	case BoolAttr:
		return "bool"
	default:
		return fmt.Sprintf("AttrType(%d)", int(a))
	}
}

// InferType classifies the named column of t. String columns are
// classified by their average word-token count over non-null values.
func InferType(t *table.Table, col string) (AttrType, error) {
	j, err := t.Col(col)
	if err != nil {
		return 0, err
	}
	switch t.Schema().Field(j).Kind {
	case table.Int, table.Float:
		return Numeric, nil
	case table.Date:
		return DateAttr, nil
	case table.Bool:
		return BoolAttr, nil
	}
	tok := tokenize.Word{}
	total, n := 0, 0
	for i := 0; i < t.Len(); i++ {
		v := t.Row(i)[j]
		if v.IsNull() {
			continue
		}
		total += len(tok.Tokens(v.Str()))
		n++
	}
	if n == 0 {
		return ShortString, nil
	}
	avg := float64(total) / float64(n)
	switch {
	case avg <= 3:
		return ShortString, nil
	case avg <= 10:
		return MediumString, nil
	default:
		return LongString, nil
	}
}

// Feature computes one similarity value for a record pair. A NaN result
// means the feature is missing for that pair (one side null).
type Feature struct {
	// Name is unique within a feature set, e.g. "AwardTitle_jaccard_word".
	Name string
	// LeftCol and RightCol are the compared columns.
	LeftCol, RightCol string
	// Func is the registry key of the similarity ("jaccard_word",
	// "lev_sim", ...); empty for custom closures, which cannot be
	// serialized. A non-empty Func promises Compute is the registry's:
	// VectorizeCtx computes set similarities from the key, not by
	// calling Compute.
	Func string
	// Compute maps the two cell values to a similarity; it must return
	// NaN when either value is null.
	Compute func(a, b table.Value) float64
}

// Set is an ordered collection of features bound to a left/right table
// pair's schemas.
type Set struct {
	Features []Feature
	// right and cells are set on a set Bind returned: the one right
	// table it answers about, and its cells, prepared ahead (see
	// prepared.go).
	right *table.Table
	cells *rightCells
	// leftPlan is a bound set's plan for the last left schema it met —
	// requests share the server's — with the bound columns its groups
	// read; resolved again only when another schema comes.
	leftPlan atomic.Pointer[plan]
}

// Restrict returns the set a deployment vectorizes with: the features
// read marks — what the deployed matcher's nodes test, ml.Narrow — and
// no others, in the same order, so a vector holds only the values its
// matcher reads and is as wide as the read count. A (column, form) group
// none of whose features is read is neither bound nor tokenised nor
// merged. s is left as it is; a caller that trains keeps the set it
// generated.
func (s *Set) Restrict(read []bool) *Set {
	out := &Set{}
	for k, f := range s.Features {
		if read[k] {
			out.Features = append(out.Features, f)
		}
	}
	return out
}

// Names returns the feature names in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.Features))
	for i, f := range s.Features {
		out[i] = f.Name
	}
	return out
}

// Len returns the feature count.
func (s *Set) Len() int { return len(s.Features) }

// Add appends a feature, rejecting duplicate names — and any feature on a
// bound set, whose cells are built.
func (s *Set) Add(f Feature) error {
	if s.cells != nil {
		return fmt.Errorf("feature: %q added to a bound set", f.Name)
	}
	for _, g := range s.Features {
		if g.Name == f.Name {
			return fmt.Errorf("feature: duplicate feature %q", f.Name)
		}
	}
	s.Features = append(s.Features, f)
	return nil
}

// strSim wraps a string similarity into a Feature compute func.
func strSim(fn func(a, b string) float64) func(a, b table.Value) float64 {
	return func(a, b table.Value) float64 {
		if a.IsNull() || b.IsNull() {
			return math.NaN()
		}
		return fn(a.Str(), b.Str())
	}
}

// tokSim wraps a token-sequence similarity with the given tokenizer.
func tokSim(tok tokenize.Tokenizer, fn func(a, b []string) float64) func(a, b table.Value) float64 {
	return func(a, b table.Value) float64 {
		if a.IsNull() || b.IsNull() {
			return math.NaN()
		}
		return fn(tok.Tokens(a.Str()), tok.Tokens(b.Str()))
	}
}

// numSim wraps a numeric comparator.
func numSim(fn func(a, b float64) float64) func(a, b table.Value) float64 {
	return func(a, b table.Value) float64 {
		if a.IsNull() || b.IsNull() {
			return math.NaN()
		}
		return fn(a.Float(), b.Float())
	}
}

// yearSim compares dates by year.
func yearSim(fn func(a, b float64) float64) func(a, b table.Value) float64 {
	return func(a, b table.Value) float64 {
		if a.IsNull() || b.IsNull() {
			return math.NaN()
		}
		return fn(float64(a.Date().Year()), float64(b.Date().Year()))
	}
}

// similarity is one registry entry: the per-pair computation every
// Feature carries, plus — for the set similarities — the prepared form
// VectorizeCtx computes them from (see prepared.go).
type similarity struct {
	compute func(a, b table.Value) float64
	// form and ratio are set for set similarities only: the value is
	// ratio(|A∩B|, |A|, |B|) over the cells' form tokens.
	form  block.Form
	ratio func(inter, la, lb int) float64
}

// direct is a similarity with no prepared form.
func direct(fn func(a, b table.Value) float64) similarity { return similarity{compute: fn} }

// Registry of named similarity computations. Every auto-generated
// feature references one of these by key, which is what makes feature
// sets serializable for deployment (internal/workflow's Spec).
var computeRegistry = func() map[string]similarity {
	word := tokenize.Word{}
	qg3 := tokenize.QGram{Q: 3}
	return map[string]similarity{
		"lev_sim":                  direct(strSim(simfunc.LevenshteinSim)),
		"jaro":                     direct(strSim(simfunc.Jaro)),
		"jaro_winkler":             direct(strSim(simfunc.JaroWinkler)),
		"exact":                    direct(strSim(simfunc.ExactString)),
		"exact_fold":               direct(strSim(simfunc.ExactStringFold)),
		"jaccard_qgram3":           setSim(block.Form{Tok: qg3}, simfunc.JaccardSizes),
		"jaccard_word":             setSim(block.Form{Tok: word}, simfunc.JaccardSizes),
		"cosine_word":              setSim(block.Form{Tok: word}, simfunc.CosineSizes),
		"dice_word":                setSim(block.Form{Tok: word}, simfunc.DiceSizes),
		"overlap_coeff_word":       setSim(block.Form{Tok: word}, simfunc.OverlapCoefficientSizes),
		"monge_elkan":              direct(tokSim(word, simfunc.MongeElkan)),
		"jaccard_word_lower":       setSim(block.Form{Tok: word, Fold: block.FoldLower}, simfunc.JaccardSizes),
		"jaccard_qgram3_lower":     setSim(block.Form{Tok: qg3, Fold: block.FoldLower}, simfunc.JaccardSizes),
		"exact_num":                direct(numSim(simfunc.ExactNumeric)),
		"abs_diff":                 direct(numSim(simfunc.AbsDiff)),
		"rel_diff":                 direct(numSim(simfunc.RelDiff)),
		"year_diff":                direct(yearSim(simfunc.YearDiff)),
		"year_exact":               direct(yearSim(simfunc.ExactNumeric)),
		"generalized_jaccard_word": direct(tokSim(word, simfunc.GeneralizedJaccard)),
		"prefix_sim":               direct(strSim(simfunc.PrefixSim)),
		"affine_gap":               direct(strSim(simfunc.AffineGap)),
	}
}()

// Compute returns the registered similarity computation for key, and
// whether it exists.
func Compute(key string) (func(a, b table.Value) float64, bool) {
	sim, ok := computeRegistry[key]
	return sim.compute, ok
}

// New builds a registry-backed feature; the feature name is
// "<leftCol>_<funcKey>".
func New(leftCol, rightCol, funcKey string) (Feature, error) {
	sim, ok := computeRegistry[funcKey]
	if !ok {
		return Feature{}, fmt.Errorf("feature: unknown similarity %q", funcKey)
	}
	return Feature{
		Name:    leftCol + "_" + funcKey,
		LeftCol: leftCol, RightCol: rightCol,
		Func:    funcKey,
		Compute: sim.compute,
	}, nil
}

// featuresForType maps an attribute type to the similarity keys
// instantiated for it, mirroring PyMatcher's get_features_for_matching.
func featuresForType(at AttrType) []string {
	switch at {
	case ShortString:
		return []string{"lev_sim", "jaro", "jaro_winkler", "exact", "jaccard_qgram3"}
	case MediumString:
		return []string{"jaccard_word", "cosine_word", "overlap_coeff_word", "jaccard_qgram3", "exact"}
	case LongString:
		return []string{"jaccard_word", "cosine_word", "overlap_coeff_word", "monge_elkan"}
	case Numeric:
		return []string{"exact_num", "abs_diff", "rel_diff"}
	case DateAttr:
		return []string{"year_diff", "year_exact"}
	case BoolAttr:
		return []string{"exact_num"}
	}
	return nil
}

// Generate builds the automatic feature set for the given column
// correspondences (left column → right column). The features instantiated
// per column pair depend on the inferred attribute type of the left
// column.
func Generate(left, right *table.Table, corr map[string]string, order []string) (*Set, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("feature: empty column order")
	}
	set := &Set{}
	for _, lcol := range order {
		rcol, ok := corr[lcol]
		if !ok {
			return nil, fmt.Errorf("feature: column %q missing from correspondence", lcol)
		}
		if _, err := right.Col(rcol); err != nil {
			return nil, err
		}
		at, err := InferType(left, lcol)
		if err != nil {
			return nil, err
		}
		for _, key := range featuresForType(at) {
			f, err := New(lcol, rcol, key)
			if err != nil {
				return nil, err
			}
			if err := set.Add(f); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// caseInsensitiveKeys are the Section 9 debugging-fix features.
var caseInsensitiveKeys = []string{"jaccard_word_lower", "jaccard_qgram3_lower", "exact_fold"}

// AddCaseInsensitive appends the case-insensitive feature variants for the
// given string column pairs — the Section 9 debugging fix for "award
// titles having different letter cases".
func AddCaseInsensitive(set *Set, left *table.Table, corr map[string]string, cols []string) error {
	for _, lcol := range cols {
		rcol, ok := corr[lcol]
		if !ok {
			return fmt.Errorf("feature: column %q missing from correspondence", lcol)
		}
		if _, err := left.Col(lcol); err != nil {
			return err
		}
		for _, key := range caseInsensitiveKeys {
			f, err := New(lcol, rcol, key)
			if err != nil {
				return err
			}
			if err := set.Add(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// VectorizeCtx converts each candidate pair into a feature vector (NaN
// marks missing values). Rows align with pairs. It is the set's one
// vectorize; it keeps its Ctx suffix only because bench/embench
// (layers.go, offline.go) calls it by that name. The fan-out stops on
// cancellation, and a panicking or failing feature computation surfaces
// as an error carrying the offending pair index (parallel.FailingIndex)
// instead of crashing the process — which is what lets a workflow abort
// naming the poison pair.
//
// The cells of the rows pairs reference are prepared once up front (see
// prepared.go); the returned rows are windows of one backing array, the
// caller's to write to. A bound set asked about another right table
// returns an error naming both.
func (s *Set) VectorizeCtx(ctx context.Context, left, right *table.Table, pairs []block.Pair) ([][]float64, error) {
	if s.right != nil {
		if err := block.CheckBound(s.right, right); err != nil {
			return nil, fmt.Errorf("feature: vectorize: %w", err)
		}
	}
	pl, err := s.planFor(left, right)
	if err != nil {
		return nil, err
	}
	vctx, sp := obs.StartSpan(ctx, "feature.vectorize")
	defer sp.End()
	sp.SetItems(len(pairs))
	out := make([][]float64, len(pairs))
	cells, err := pl.prepare(vctx, s, left, right, pairs)
	if err == nil {
		width := len(s.Features)
		flat := make([]float64, len(pairs)*width)
		err = parallel.ForWorkersCtx(vctx, len(pairs), parallel.LightWorkers(len(pairs)), func(i int) error {
			// The capacity stops an append to one row reaching the next.
			row := flat[i*width : (i+1)*width : (i+1)*width]
			pl.vector(row, s, cells, left, right, pairs[i])
			out[i] = row
			return nil
		})
	}
	if err != nil {
		sp.SetOutcome(obs.OutcomeAborted)
		return nil, fmt.Errorf("feature: vectorize: %w", err)
	}
	sp.SetOutcome(obs.OutcomeOK)
	return out, nil
}
