package emgo

import (
	"context"
	"testing"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/profile"
	"emgo/internal/rules"
	"emgo/internal/umetrics"
)

// TestA5_RulesVsThreshold compares the paper's precision fix — negative
// pattern rules applied to the learner's output (Section 12, "localized
// changes") — with the obvious alternative of raising the classifier's
// decision threshold. The rules surgically remove comparable-number
// false positives; the threshold trades recall globally. At equal
// precision the rule-patched matcher must keep at least as much recall.
func TestA5_RulesVsThreshold(t *testing.T) {
	w := ablationWorld(t)

	// Train a tree on the decided labels (case features included).
	fs, err := feature.Generate(w.proj.UMETRICS, w.proj.USDA, ablCorr, ablOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(fs, w.proj.UMETRICS, ablCorr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		t.Fatal(err)
	}
	ds, im, err := ablationTraining(w, fs, label.Unsure)
	if err != nil {
		t.Fatal(err)
	}
	tree := &ml.DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}

	// Score the learner-relevant candidate pairs against gold: hard
	// pairs excluded (as in estimation), and the number-rule-decided
	// pairs excluded (the sure rules handle those, not the learner).
	var evalPairs []block.Pair
	var gold []int
	for _, p := range w.cand.Pairs() {
		if w.oracle.IsHard(p) {
			continue
		}
		if cls := w.oracle.Class(p); cls == umetrics.ClassFederal || cls == umetrics.ClassState {
			continue
		}
		evalPairs = append(evalPairs, p)
		if w.oracle.IsMatch(p) {
			gold = append(gold, 1)
		} else {
			gold = append(gold, 0)
		}
	}
	ex, err := fs.VectorizeCtx(context.Background(), w.proj.UMETRICS, w.proj.USDA, evalPairs)
	if err != nil {
		t.Fatal(err)
	}
	if ex, err = im.Transform(ex); err != nil {
		t.Fatal(err)
	}
	evalDS, err := ml.NewDataset(fs.Names(), ex, gold)
	if err != nil {
		t.Fatal(err)
	}

	// Approach A: default threshold + negative rules.
	fig10, err := umetrics.FigureSpec(10).Build(w.proj.UMETRICS, w.proj.USDA, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	var rulesConf ml.Confusion
	for i, p := range evalPairs {
		pred := tree.Predict(ex[i])
		if pred == 1 && fig10.NegativeRules.Judge(w.proj.UMETRICS.Row(p.A), w.proj.USDA.Row(p.B)) == rules.NonMatch {
			pred = 0
		}
		switch {
		case gold[i] == 1 && pred == 1:
			rulesConf.TP++
		case gold[i] == 0 && pred == 1:
			rulesConf.FP++
		case gold[i] == 0 && pred == 0:
			rulesConf.TN++
		default:
			rulesConf.FN++
		}
	}

	// Approach B: threshold tuning to the same precision.
	curve, err := ml.PRCurve(tree, evalDS)
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := ml.OperatingPointFor(curve, rulesConf.Precision())
	t.Logf("A5: rules       P=%.3f R=%.3f", rulesConf.Precision(), rulesConf.Recall())
	if ok {
		t.Logf("A5: threshold   P=%.3f R=%.3f (th=%.3f)",
			pt.Confusion.Precision(), pt.Confusion.Recall(), pt.Threshold)
	} else {
		t.Logf("A5: no threshold reaches the rules' precision %.3f at all", rulesConf.Precision())
	}

	if rulesConf.Precision() < 0.8 {
		t.Errorf("rule-patched precision %.3f below expectation", rulesConf.Precision())
	}
	// The paper's point, in its two possible strengths: either no global
	// threshold reaches the rules' precision at all (the traps are
	// feature-indistinguishable from matches, so the probability ordering
	// cannot separate them — only the pattern knowledge can), or, if one
	// does, it must sacrifice at least as much recall as the rules did.
	if ok && rulesConf.Recall() < pt.Confusion.Recall()-1e-9 {
		t.Errorf("at equal precision, rules should keep at least the threshold's recall: %.3f vs %.3f",
			rulesConf.Recall(), pt.Confusion.Recall())
	}
}

// TestPatternDiscovery reproduces how the pattern list behind the
// negative rule can be derived from the data itself: profiling the
// generated identifier columns recovers exactly the shapes the paper
// reports (federal "YYYY-#####-#####" award numbers and "WIS#####"
// project numbers).
func TestPatternDiscovery(t *testing.T) {
	w := ablationWorld(t)
	gen := func(s string) string { return string(rules.Generalize(s)) }

	awards, err := profile.Patterns(w.proj.USDA, "AwardNumber", 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(awards) == 0 || awards[0].Pattern != "YYYY-#####-#####" {
		t.Fatalf("award-number pattern = %+v", awards)
	}
	// Discovered shapes are in the published pattern set.
	ps := umetrics.KnownPatterns()
	found := false
	for _, p := range ps {
		if string(p) == awards[0].Pattern {
			found = true
		}
	}
	if !found {
		t.Fatalf("discovered pattern %q missing from KnownPatterns", awards[0].Pattern)
	}
}
