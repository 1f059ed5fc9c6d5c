package umetrics

import (
	"fmt"
	"strings"

	"emgo/internal/block"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// KnownPatterns is the identifier pattern list the UMETRICS team supplied
// for the Section 12 negative rule: federal award numbers, Wisconsin
// project numbers, and forest-service style contract numbers.
func KnownPatterns() rules.Set {
	return rules.Set{
		"YYYY-#####-#####",
		"XXX#####",
		"##-XX-#########-###",
	}
}

// SuffixNormalize extracts the second part of a UMETRICS
// UniqueAwardNumber ("10.200 2008-34103-19449" → "2008-34103-19449") and
// normalizes formatting noise: embedded spaces are removed and letters
// uppercased. This is the transform behind the M1 blocking/matching rule
// (Section 7 step 1).
func SuffixNormalize(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[i+1:]
	} else {
		return "" // no suffix part: withhold
	}
	return NormalizeNumber(s)
}

// RawSuffix extracts the suffix without any normalization — the IRIS
// baseline's comparison key.
func RawSuffix(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[i+1:]
	}
	return ""
}

// NormalizeNumber uppercases an identifier and strips spaces.
func NormalizeNumber(s string) string {
	return strings.ToUpper(strings.ReplaceAll(s, " ", ""))
}

// FigureSpec is the UMETRICS workflow as the paper draws it in Figure
// fig — 8, 9 or 10; any other figure panics — as a spec of blockers and
// rules, with no features and no matcher. It is the workflow's one
// definition: the case study builds each figure from it, adding its own
// trained matcher, and packages Figure 10 with that matcher
// (workflow.Spec.Package) for deployment.
//
//   - Figure 8 (Sections 7 and 9): the Section 7 blockers — C1, the M1
//     rule as a blocker; C2, title overlap K=3; C3, title overlap
//     coefficient 0.7 — and the M1 sure rule of Figure 5: the
//     UniqueAwardNumber suffix equals the USDA award number.
//   - Figure 9 (Section 10) adds the sure rule discovered there: the
//     suffix equals the USDA project number, so the USDA table must carry
//     the ProjectNumber column (AddProjectNumber).
//   - Figure 10 (Section 12) adds the negative rules: a pair is a
//     non-match when the UMETRICS number is comparable to — but different
//     from — the USDA award number or project number.
func FigureSpec(fig int) *workflow.Spec {
	if fig < 8 || fig > 10 {
		panic(fmt.Sprintf("umetrics: the paper draws no workflow in Figure %d", fig))
	}
	// byNumber compares the UMETRICS award number's suffix with a USDA
	// number column, both normalized.
	byNumber := func(typ, name, usdaCol string) workflow.RuleSpec {
		return workflow.RuleSpec{Type: typ, Name: name, LeftCol: "AwardNumber", RightCol: usdaCol,
			LeftTransform: TransformSuffixNormalize, RightTransform: TransformNormalizeNumber}
	}
	m1 := byNumber("equal", "M1", "AwardNumber")
	m1.Verdict = "match"
	spec := &workflow.Spec{
		Name: fmt.Sprintf("umetrics-figure%d", fig),
		Blockers: []workflow.BlockerSpec{
			{Type: "attr_equiv", LeftCol: "AwardNumber", RightCol: "AwardNumber",
				LeftTransform: TransformSuffixNormalize, RightTransform: TransformNormalizeNumber},
			{Type: "overlap", LeftCol: "AwardTitle", RightCol: "AwardTitle",
				Tokenizer: "word", Threshold: 3, Normalize: true},
			{Type: "overlap_coeff", LeftCol: "AwardTitle", RightCol: "AwardTitle",
				Tokenizer: "word", Coefficient: 0.7, Normalize: true},
		},
		SureRules: []workflow.RuleSpec{m1},
	}
	if fig >= 9 {
		project := byNumber("equal", "award_eq_project", "ProjectNumber")
		project.Verdict = "match"
		spec.SureRules = append(spec.SureRules, project)
	}
	if fig >= 10 {
		var patterns []string
		for _, p := range KnownPatterns() {
			patterns = append(patterns, string(p))
		}
		negAward := byNumber("comparable_mismatch", "neg_award", "AwardNumber")
		negProject := byNumber("comparable_mismatch", "neg_project", "ProjectNumber")
		negAward.Patterns, negProject.Patterns = patterns, patterns
		spec.NegativeRules = []workflow.RuleSpec{negAward, negProject}
	}
	return spec
}

// FeatureColumns is the feature correspondence of Section 9: the
// projected columns the matcher's features compare, each with its
// namesake on the other side, and the order features are generated in
// (feature.Generate). Each call returns a fresh map and slice.
func FeatureColumns() (corr map[string]string, order []string) {
	order = []string{"AwardNumber", "AwardTitle", "FirstTransDate", "LastTransDate", "EmployeeName"}
	corr = make(map[string]string, len(order))
	for _, c := range order {
		corr[c] = c
	}
	return corr, order
}

// TruthOracle adapts the generator's ground truth to row-index pairs over
// projected tables, for the simulated expert and evaluation code.
type TruthOracle struct {
	truth *Truth
	umUAN []string
	usAcc []string
}

// NewTruthOracle resolves the ID columns of the projected tables once.
func NewTruthOracle(truth *Truth, um, usda *table.Table) (*TruthOracle, error) {
	uj, err := um.Col("AwardNumber")
	if err != nil {
		return nil, err
	}
	aj, err := usda.Col("AccessionNumber")
	if err != nil {
		return nil, err
	}
	o := &TruthOracle{
		truth: truth,
		umUAN: make([]string, um.Len()),
		usAcc: make([]string, usda.Len()),
	}
	for i := 0; i < um.Len(); i++ {
		o.umUAN[i] = um.Row(i)[uj].Str()
	}
	for i := 0; i < usda.Len(); i++ {
		o.usAcc[i] = usda.Row(i)[aj].Str()
	}
	return o, nil
}

// IsMatch reports ground truth for a row-index pair.
func (o *TruthOracle) IsMatch(p block.Pair) bool {
	return o.truth.IsMatch(o.umUAN[p.A], o.usAcc[p.B])
}

// IsHard reports whether the pair is inherently undecidable.
func (o *TruthOracle) IsHard(p block.Pair) bool {
	return o.truth.IsHard(o.umUAN[p.A], o.usAcc[p.B])
}

// IsTrap reports whether the pair is a deliberate lookalike non-match.
func (o *TruthOracle) IsTrap(p block.Pair) bool {
	return o.truth.IsTrap(o.umUAN[p.A], o.usAcc[p.B])
}

// Class returns the match class of a true-match pair (ClassNone
// otherwise).
func (o *TruthOracle) Class(p block.Pair) PairClass {
	return o.truth.MatchClass(o.umUAN[p.A], o.usAcc[p.B])
}

// Key returns the ID key of a row pair.
func (o *TruthOracle) Key(p block.Pair) IDKey {
	return IDKey{UAN: o.umUAN[p.A], Accession: o.usAcc[p.B]}
}
