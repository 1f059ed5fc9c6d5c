// Production example: the Section 12 "Next Steps" lifecycle. Development
// trains a matcher through core.Project and packages it with the Figure
// 10 workflow as a JSON spec (Project.Spec); production loads the spec,
// runs it over each incoming data slice (umetrics.RunDeployed), and
// monitors accuracy by sampling and labeling predicted matches (footnote
// 11). A dirty slice trips the precision alarm — the signal to
// go back to development. Run with:
//
//	go run ./examples/production
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

func main() {
	// ---- Development: train and package the workflow. ----
	spec := develop()
	data, err := spec.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "umetrics-workflow.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("development: packaged workflow spec (%d bytes) -> %s\n", len(data), path)

	// ---- Production: load the spec and process data slices. ----
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := workflow.ParseSpec(raw)
	if err != nil {
		log.Fatal(err)
	}
	monitor := &workflow.Monitor{
		SampleSize:   80,
		MinPrecision: 0.75,
		Rng:          rand.New(rand.NewSource(100)),
	}

	// Two quarterly slices: a clean one, then one whose labels expose a
	// precision collapse (simulated by a hostile labeler standing in for
	// genuinely dirty data).
	for _, batch := range []struct {
		name  string
		seed  int64
		dirty bool
	}{
		{"2016-Q1", 41, false},
		{"2016-Q2", 42, true},
	} {
		res, labeler := runSlice(loaded, batch.seed, batch.dirty)
		check, err := monitor.Check(batch.name, res.Final, labeler)
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if check.Alarm {
			status = "ALARM — send the workflow back to development"
		}
		fmt.Printf("production %s: %d matches, precision %s over %d labeled -> %s\n",
			batch.name, res.Final.Len(), check.Precision, check.Labeled, status)
	}
	fmt.Printf("monitoring history: %d checks, %d alarms\n",
		len(monitor.History()), len(monitor.Alarms()))
}

// develop trains the matcher on the development world and returns the
// packaged Figure 10 spec.
func develop() *workflow.Spec {
	ds, proj := world(umetrics.TestParams(0.25))
	p, err := core.NewProject("development", proj.UMETRICS, proj.USDA, 0)
	if err != nil {
		log.Fatal(err)
	}
	p.AddBlocker(block.Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true})
	cand, err := p.Block()
	if err != nil {
		log.Fatal(err)
	}
	truth := truthLabels(ds, proj)
	for _, pair := range cand.Pairs() {
		if err := p.SetLabel(pair, truth(pair)); err != nil {
			log.Fatal(err)
		}
	}
	corr := map[string]string{"AwardNumber": "AwardNumber", "AwardTitle": "AwardTitle", "EmployeeName": "EmployeeName"}
	if err := p.GenerateFeatures(corr, []string{"AwardNumber", "AwardTitle", "EmployeeName"}); err != nil {
		log.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(p.Features(), proj.UMETRICS, corr, []string{"AwardTitle", "EmployeeName"}); err != nil {
		log.Fatal(err)
	}
	if err := p.Train("decision_tree"); err != nil {
		log.Fatal(err)
	}
	spec, err := p.Spec(umetrics.FigureSpec(10))
	if err != nil {
		log.Fatal(err)
	}
	return spec
}

// runSlice runs the deployed workflow over a fresh data slice and returns
// its result plus the labeler the monitor uses.
func runSlice(spec *workflow.Spec, seed int64, dirty bool) (*workflow.Result, func(block.Pair) label.Label) {
	params := umetrics.TestParams(0.25)
	params.Seed = seed
	ds, proj := world(params)
	res, err := umetrics.RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA, workflow.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	truth := truthLabels(ds, proj)
	noise := rand.New(rand.NewSource(seed * 7))
	labeler := func(p block.Pair) label.Label {
		if dirty && noise.Float64() < 0.5 {
			// The dirty slice's matches fail human review half the time.
			return label.No
		}
		return truth(p)
	}
	return res, labeler
}

// world generates a UMETRICS world and preprocesses its slice, with the
// USDA project numbers joined in.
func world(params umetrics.Params) (*umetrics.Dataset, *umetrics.Projected) {
	ds, err := umetrics.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		log.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		log.Fatal(err)
	}
	return ds, proj
}

// truthLabels labels a pair of proj as an honest labeller would: Unsure
// when the generator marks it hard, otherwise the truth.
func truthLabels(ds *umetrics.Dataset, proj *umetrics.Projected) func(block.Pair) label.Label {
	oracle, err := umetrics.NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		log.Fatal(err)
	}
	return func(p block.Pair) label.Label {
		switch {
		case oracle.IsHard(p):
			return label.Unsure
		case oracle.IsMatch(p):
			return label.Yes
		default:
			return label.No
		}
	}
}
