package umetrics

// PairClass explains why a ground-truth pair relates the way it does; it
// drives the simulated expert and the per-experiment analyses.
type PairClass int

const (
	// ClassNone marks an unrelated pair.
	ClassNone PairClass = iota
	// ClassFederal is a true match joined by a federal award number (the
	// M1 rule, Figure 5).
	ClassFederal
	// ClassState is a true match joined by a WIS project number (the
	// later-discovered positive rule).
	ClassState
	// ClassTitle is a true match discoverable only through title/director
	// similarity (the M2/M3 signal, Figure 6).
	ClassTitle
	// ClassTitleVeto is a true match whose identifiers are comparable but
	// different (renumbered projects); the negative rule wrongly vetoes
	// these — the small recall cost of Figure 10.
	ClassTitleVeto
	// ClassTrap is a non-match with a near-identical title and a
	// comparable-but-different identifier (sibling projects in a series);
	// the learner tends to accept these and the negative rule vetoes them.
	ClassTrap
	// ClassGeneric is an undecidable pair with a generic title ("Lab
	// Supplies") — labeled Unsure by the expert.
	ClassGeneric
	// ClassNCNRSP is a pair whose USDA title carries the multistate
	// "NC/NRSP" suffix — revised to Unsure during label debugging (D1).
	ClassNCNRSP
)

// String names the class.
func (c PairClass) String() string {
	switch c {
	case ClassFederal:
		return "federal"
	case ClassState:
		return "state"
	case ClassTitle:
		return "title"
	case ClassTitleVeto:
		return "title_veto"
	case ClassTrap:
		return "trap"
	case ClassGeneric:
		return "generic"
	case ClassNCNRSP:
		return "nc_nrsp"
	default:
		return "none"
	}
}

// IDKey identifies a record pair by its business keys: the UMETRICS
// UniqueAwardNumber and the USDA AccessionNumber — the format the final
// matches are delivered in.
type IDKey struct {
	UAN       string // UMETRICS UniqueAwardNumber
	Accession string // USDA AccessionNumber
}

// Truth is the generator's ground truth: which (UMETRICS, USDA) record
// pairs refer to the same grant, which pairs are inherently undecidable,
// and which non-matching pairs were built as traps.
type Truth struct {
	matches map[IDKey]PairClass
	hard    map[IDKey]PairClass // generic / NC-NRSP pairs: expert says Unsure
	traps   map[IDKey]PairClass // deliberate non-match lookalikes
}

// NewTruth returns an empty truth.
func NewTruth() *Truth {
	return &Truth{
		matches: make(map[IDKey]PairClass),
		hard:    make(map[IDKey]PairClass),
		traps:   make(map[IDKey]PairClass),
	}
}

// AddMatch records a true match of the given class.
func (t *Truth) AddMatch(uan, accession string, class PairClass) {
	t.matches[IDKey{uan, accession}] = class
}

// AddHard records an undecidable pair.
func (t *Truth) AddHard(uan, accession string, class PairClass) {
	t.hard[IDKey{uan, accession}] = class
}

// AddTrap records a deliberate lookalike non-match.
func (t *Truth) AddTrap(uan, accession string, class PairClass) {
	t.traps[IDKey{uan, accession}] = class
}

// IsMatch reports whether the pair is a true match.
func (t *Truth) IsMatch(uan, accession string) bool {
	_, ok := t.matches[IDKey{uan, accession}]
	return ok
}

// IsHard reports whether even the domain expert cannot decide the pair.
func (t *Truth) IsHard(uan, accession string) bool {
	_, ok := t.hard[IDKey{uan, accession}]
	return ok
}

// IsTrap reports whether the pair is a deliberate lookalike non-match.
func (t *Truth) IsTrap(uan, accession string) bool {
	_, ok := t.traps[IDKey{uan, accession}]
	return ok
}

// MatchClass returns the class of a true match (ClassNone when not a
// match).
func (t *Truth) MatchClass(uan, accession string) PairClass {
	return t.matches[IDKey{uan, accession}]
}

// NumMatches returns the number of true matching pairs.
func (t *Truth) NumMatches() int { return len(t.matches) }

// Matches returns all true-match keys (order unspecified).
func (t *Truth) Matches() []IDKey {
	out := make([]IDKey, 0, len(t.matches))
	for k := range t.matches {
		out = append(out, k)
	}
	return out
}
