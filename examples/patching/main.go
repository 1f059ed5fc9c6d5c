// Patching example: reproduce the Section 10 situation — after an EM
// workflow is built and deployed, the match definition is revised (a new
// positive rule is discovered) AND extra records arrive that were missing
// from the input table. Instead of redoing the whole process (re-block,
// re-sample, re-label), the existing workflow is kept "as is" and patched:
// the new rule is applied directly to the input tables, the same trained
// matcher is run over the extra slice, and the match lists are unioned at
// the record-ID level. Run with:
//
//	go run ./examples/patching
package main

import (
	"fmt"
	"log"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

func main() {
	// A scaled-down UMETRICS world: the original slice, plus the extra
	// records that surface later.
	ds, err := umetrics.Generate(umetrics.TestParams(0.2))
	if err != nil {
		log.Fatal(err)
	}
	orig, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		log.Fatal(err)
	}
	extra, _, err := umetrics.Preprocess(ds.ExtraAwardAgg, ds.Employees, ds.USDA, "x", "s")
	if err != nil {
		log.Fatal(err)
	}
	extra.USDA = orig.USDA // one USDA table, two UMETRICS slices

	// ---- Phase 1: the workflow as originally built (Figure 8: M1 only). ----
	fs, im, matcher, err := trainMatcher(ds, orig)
	if err != nil {
		log.Fatal(err)
	}
	v1 := figure(8, orig, fs, im, matcher)
	res1, err := v1.Run(orig.UMETRICS, orig.USDA)
	if err != nil {
		log.Fatal(err)
	}
	ids1, err := res1.MatchIDs("AwardNumber", "AccessionNumber")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (deployed workflow): %d matches\n", len(ids1))

	// ---- Phase 2: the match definition changes. ----
	// A second positive rule is discovered: the UMETRICS number can also
	// equal the USDA *project* number. First check how much it matters
	// before deciding to patch (the paper's analysis).
	if err := umetrics.AddProjectNumber(orig, ds.USDA); err != nil {
		log.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(extra, ds.USDA); err != nil {
		log.Fatal(err)
	}
	// The new rule is Figure 9's second sure rule; run it on its own.
	fig9 := umetrics.FigureSpec(9)
	rule2, err := (&workflow.Spec{Name: fig9.Name, SureRules: fig9.SureRules[1:]}).
		Build(orig.UMETRICS, orig.USDA, umetrics.DeployTransforms())
	if err != nil {
		log.Fatal(err)
	}
	rule2Pairs := rule2.SureRules.SureMatches(orig.UMETRICS, orig.USDA)
	caught := 0
	for _, p := range rule2Pairs.Pairs() {
		if res1.Final.Contains(p) {
			caught++
		}
	}
	fmt.Printf("phase 2 (revised definition): new rule decides %d pairs; the deployed workflow already predicted %d of them\n",
		rule2Pairs.Len(), caught)

	// Patch, don't redo: apply the new rule directly to the input tables
	// and union the results — no new labels needed.
	ids2 := idPairs(rule2Pairs)

	// ---- Phase 3: extra records arrive. ----
	// Run the patched rules (Figure 9) and the SAME trained matcher over
	// the new slice only.
	v2 := figure(9, extra, fs, im, matcher)
	res3, err := v2.Run(extra.UMETRICS, extra.USDA)
	if err != nil {
		log.Fatal(err)
	}
	ids3, err := res3.MatchIDs("AwardNumber", "AccessionNumber")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 3 (extra records): %d matches from the new slice\n", len(ids3))

	// Final deliverable: the union of all three phases, deduplicated.
	final := workflow.MergeIDs(ids1, ids2, ids3)
	fmt.Printf("patched total: %d matches (no re-labeling, no re-blocking of the original slice)\n", len(final))
}

// figure builds the UMETRICS workflow of the given paper figure over one
// slice, with the trained matcher.
func figure(fig int, um *umetrics.Projected, fs *feature.Set, im *feature.Imputer, m ml.Matcher) *workflow.Workflow {
	w, err := umetrics.FigureSpec(fig).Build(um.UMETRICS, um.USDA, umetrics.DeployTransforms())
	if err != nil {
		log.Fatal(err)
	}
	w.Features, w.Imputer, w.Matcher = fs, im, m
	return w
}

// trainMatcher labels a sample with the simulated expert and fits the
// best cross-validated matcher.
func trainMatcher(ds *umetrics.Dataset, proj *umetrics.Projected) (*feature.Set, *feature.Imputer, ml.Matcher, error) {
	oracle, err := umetrics.NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		return nil, nil, nil, err
	}
	blocker := block.Overlap{
		LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true,
	}
	cand, err := blocker.Block(proj.UMETRICS, proj.USDA)
	if err != nil {
		return nil, nil, nil, err
	}
	expert := &label.Expert{Truth: oracle.IsMatch, Hard: oracle.IsHard}
	var pairs []block.Pair
	var y []int
	for _, p := range cand.Pairs() {
		switch expert.Label(p) {
		case label.Yes:
			pairs = append(pairs, p)
			y = append(y, 1)
		case label.No:
			pairs = append(pairs, p)
			y = append(y, 0)
		}
	}
	corr := map[string]string{"AwardTitle": "AwardTitle", "EmployeeName": "EmployeeName"}
	fs, err := feature.Generate(proj.UMETRICS, proj.USDA, corr, []string{"AwardTitle", "EmployeeName"})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := feature.AddCaseInsensitive(fs, proj.UMETRICS, corr, []string{"AwardTitle"}); err != nil {
		return nil, nil, nil, err
	}
	x, err := fs.Vectorize(proj.UMETRICS, proj.USDA, pairs)
	if err != nil {
		return nil, nil, nil, err
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		return nil, nil, nil, err
	}
	if x, err = im.Transform(x); err != nil {
		return nil, nil, nil, err
	}
	dset, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		return nil, nil, nil, err
	}
	m := &ml.DecisionTree{}
	if err := m.Fit(dset); err != nil {
		return nil, nil, nil, err
	}
	return fs, im, m, nil
}

// idPairs renders a candidate set as ID pairs.
func idPairs(set *block.CandidateSet) []workflow.IDPair {
	res := &workflow.Result{Final: set}
	ids, err := res.MatchIDs("AwardNumber", "AccessionNumber")
	if err != nil {
		log.Fatal(err)
	}
	return ids
}
