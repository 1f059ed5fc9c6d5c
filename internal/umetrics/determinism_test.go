package umetrics

import "testing"

// TestCaseStudyDeterminism runs the whole pipeline twice at a small scale
// and asserts every headline number agrees — the property DESIGN §6
// promises: the case study is fully reproducible run to run.
func TestCaseStudyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; skipped with -short")
	}
	cfg := TestConfig(0.15)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type nums struct {
		c, labels, fig8, fig9, final, vetoed int
		bestInitial, bestFinal               string
		estP, goldP                          float64
	}
	of := func(r *Report) nums {
		return nums{
			c:           r.ConsolidatedC,
			labels:      r.FinalLabels.Total(),
			fig8:        r.TotalFig8,
			fig9:        r.TotalFig9,
			final:       r.FinalMatches,
			vetoed:      r.VetoedOriginal,
			bestInitial: r.BestInitial,
			bestFinal:   r.BestFinal,
			estP:        r.EstFinal.Precision.Point,
			goldP:       r.GoldFinal.Precision(),
		}
	}
	if of(a) != of(b) {
		t.Fatalf("case study is not deterministic:\n%+v\n%+v", of(a), of(b))
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("match lists differ")
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			t.Fatal("match IDs differ")
		}
	}
}
