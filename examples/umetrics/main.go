// UMETRICS example: drive the paper's grant-matching problem through the
// public core API — generate the raw tables, pre-process them into
// UMETRICSProjected/USDAProjected, start the project from the Figure 10
// workflow (umetrics.FigureSpec: the Section 7 blockers, the positive and
// negative rules), label a sample with the simulated domain expert,
// select and train a matcher, and estimate accuracy. This is the
// "how-to guide" walked by hand; the emcasestudy command runs the same
// study with the paper's full chronology, through the same core steps.
// Run with:
//
//	go run ./examples/umetrics [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"emgo/internal/core"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/umetrics"
)

func main() {
	scale := flag.Float64("scale", 0.3, "data scale relative to the paper")
	flag.Parse()

	// Generate the raw tables and pre-process them (Sections 3-6).
	ds, err := umetrics.Generate(umetrics.TestParams(*scale))
	if err != nil {
		log.Fatal(err)
	}
	proj, report, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		log.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-processed %d UMETRICS x %d USDA records (FK violations: %d)\n",
		proj.UMETRICS.Len(), proj.USDA.Len(), report.EmployeeFKViolations)

	project, err := core.NewProject("umetrics", proj.UMETRICS, proj.USDA, 7)
	if err != nil {
		log.Fatal(err)
	}

	// The Figure 10 workflow (Sections 7, 10 and 12): the Section 7
	// blockers — award-number equivalence plus two title blockers — the
	// M1 and project-number sure rules, and the negative pattern rules.
	if err := project.AddSpec(umetrics.FigureSpec(10), umetrics.DeployTransforms()); err != nil {
		log.Fatal(err)
	}
	cand, err := project.Block()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocking: %d candidates from %d pairs\n",
		cand.Len(), proj.UMETRICS.Len()*proj.USDA.Len())

	// Labeling (Section 8): the simulated domain expert labels a sample
	// through the single-writer labeling tool.
	oracle, err := umetrics.NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		log.Fatal(err)
	}
	expert := &label.Expert{Truth: oracle.IsMatch, Hard: oracle.IsHard}
	tool := label.NewTool(project.Labels())
	sample, err := project.SamplePairs(min(300, cand.Len()))
	if err != nil {
		log.Fatal(err)
	}
	tool.Upload(sample)
	if err := tool.OpenSession("expert"); err != nil {
		log.Fatal(err)
	}
	if err := tool.LabelAll("expert", expert.Label); err != nil {
		log.Fatal(err)
	}
	if err := tool.CloseSession("expert"); err != nil {
		log.Fatal(err)
	}
	counts := project.Labels().Counts()
	fmt.Printf("labeled %d pairs: %d Yes / %d No / %d Unsure\n",
		counts.Total(), counts.Yes, counts.No, counts.Unsure)

	// Features (Section 9): auto-generated plus the case-insensitive fix.
	corr, order := umetrics.FeatureColumns()
	if err := project.GenerateFeatures(corr, order); err != nil {
		log.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(project.Features(), proj.UMETRICS, corr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		log.Fatal(err)
	}

	cv, err := project.SelectMatcher(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matcher selection (5-fold CV):")
	for _, r := range cv {
		fmt.Printf("  %-20s P=%.3f R=%.3f F1=%.3f\n", r.Name, r.Precision, r.Recall, r.F1)
	}
	if err := project.Train(cv[0].Name); err != nil {
		log.Fatal(err)
	}

	res, err := project.Match()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkflow result:\n%s", res.Log)

	// Estimate accuracy from the labeled sample (Section 11) and check
	// against the generator's ground truth.
	est, err := project.EstimateAccuracy(res.Final, project.Labels())
	if err != nil {
		log.Fatal(err)
	}
	tp, fp := 0, 0
	for _, p := range res.Final.Pairs() {
		if oracle.IsHard(p) {
			continue
		}
		if oracle.IsMatch(p) {
			tp++
		} else {
			fp++
		}
	}
	fmt.Printf("estimated: P=%s R=%s\n", est.Precision, est.Recall)
	fmt.Printf("gold:      %d true / %d false positives among %d matches\n",
		tp, fp, res.Final.Len())
}
