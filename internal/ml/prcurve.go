package ml

import (
	"fmt"
	"sort"
)

// PRPoint is one operating point of a probabilistic matcher: the
// precision and recall obtained by predicting "match" when P(match) >=
// Threshold.
type PRPoint struct {
	Threshold float64
	Confusion Confusion
}

// PRCurve sweeps the decision threshold of a fitted probabilistic matcher
// over the distinct predicted probabilities of a labeled evaluation set
// and returns the operating points sorted by ascending threshold. It is
// the global precision/recall dial a classifier offers — the alternative
// the Section 12 negative rules are implicitly compared against (rules
// make "localized changes"; the threshold moves everything at once).
func PRCurve(m ProbabilisticMatcher, ds *Dataset) ([]PRPoint, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("ml: pr curve needs a non-empty dataset")
	}
	probs := make([]float64, ds.Len())
	for i := range probs {
		probs[i] = m.Proba(ds.row(i))
	}
	distinct := append([]float64(nil), probs...)
	sort.Float64s(distinct)
	thresholds := distinct[:0]
	for i, p := range distinct {
		if i == 0 || p != distinct[i-1] {
			thresholds = append(thresholds, p)
		}
	}

	out := make([]PRPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var c Confusion
		for i := range probs {
			pred := 0
			if probs[i] >= th {
				pred = 1
			}
			c.add(ds.label(i), pred)
		}
		out = append(out, PRPoint{Threshold: th, Confusion: c})
	}
	return out, nil
}

// OperatingPointFor returns the lowest-threshold point on the curve whose
// precision reaches minPrecision, and whether one exists — "how much
// recall does threshold tuning alone keep, at the precision the rules
// achieve?".
func OperatingPointFor(curve []PRPoint, minPrecision float64) (PRPoint, bool) {
	for _, pt := range curve {
		if pt.Confusion.Precision() >= minPrecision {
			return pt, true
		}
	}
	return PRPoint{}, false
}
