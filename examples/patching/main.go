// Patching example: reproduce the Section 10 situation — after an EM
// workflow is built and deployed, the match definition is revised (a new
// positive rule is discovered) AND extra records arrive that were missing
// from the input table. Instead of redoing the whole process (re-block,
// re-sample, re-label), the existing workflow is kept "as is" and patched:
// the new rule is applied directly to the input tables, the same trained
// matcher is run over the extra slice, and the match lists are unioned at
// the record-ID level. The matcher is trained through core.Project and
// each version of the workflow is built from the spec the project
// packages (Project.Spec). Run with:
//
//	go run ./examples/patching
package main

import (
	"fmt"
	"log"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/feature"
	"emgo/internal/label"
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
	p, err := train(ds, orig)
	if err != nil {
		log.Fatal(err)
	}
	v1 := figure(p, 8, orig)
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
	v2 := figure(p, 9, extra)
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
// slice, with the project's trained matcher.
func figure(p *core.Project, fig int, um *umetrics.Projected) *workflow.Workflow {
	spec, err := p.Spec(umetrics.FigureSpec(fig))
	if err != nil {
		log.Fatal(err)
	}
	w, err := spec.Build(um.UMETRICS, um.USDA, umetrics.DeployTransforms())
	if err != nil {
		log.Fatal(err)
	}
	return w
}

// train labels every candidate of a title-overlap blocker with the
// simulated expert and trains a decision tree on the labels.
func train(ds *umetrics.Dataset, proj *umetrics.Projected) (*core.Project, error) {
	p, err := core.NewProject("patching", proj.UMETRICS, proj.USDA, 0)
	if err != nil {
		return nil, err
	}
	p.AddBlocker(block.Overlap{
		LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true,
	})
	cand, err := p.Block()
	if err != nil {
		return nil, err
	}
	oracle, err := umetrics.NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		return nil, err
	}
	expert := &label.Expert{Truth: oracle.IsMatch, Hard: oracle.IsHard}
	for _, pair := range cand.Pairs() {
		if err := p.SetLabel(pair, expert.Label(pair)); err != nil {
			return nil, err
		}
	}
	corr := map[string]string{"AwardTitle": "AwardTitle", "EmployeeName": "EmployeeName"}
	if err := p.GenerateFeatures(corr, []string{"AwardTitle", "EmployeeName"}); err != nil {
		return nil, err
	}
	if err := feature.AddCaseInsensitive(p.Features(), proj.UMETRICS, corr, []string{"AwardTitle"}); err != nil {
		return nil, err
	}
	return p, p.Train("decision_tree")
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
