package umetrics

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"emgo/internal/ml"
	"emgo/internal/workflow"
)

// TestGoldenDevelopmentLoop pins what the paper's development loop
// decides — leave-one-out label debugging (Section 8), both matcher
// selections (Section 9), what the final workflow then matches and the
// spec it ships, as a digest of its JSON (Section 12) — at the
// benchmark's study size, TestConfig(0.6) over data seed 41, for study
// seeds 41–45 (each picks a different winner). The values are to the
// bit, so a change to how the matchers are fitted or scored that moves
// any fold of any matcher, or to how the workflow is packaged, fails
// here. Each row names the EXPERIMENTS.md line whose shape it guards.
func TestGoldenDevelopmentLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("five case studies; skipped with -short")
	}
	rows := []struct {
		output string
		guards string
		got    func(*Report) string
		want   [5]string // study seeds 41..45
	}{
		{"CVInitial", `E4 "initial best"`, func(r *Report) string { return cvLine(r.CVInitial) }, [5]string{
			"random_forest 0.7654545454545454/0.95/0.8446115288220553; logistic_regression 0.79/0.6849999999999999/0.7233333333333333; naive_bayes 0.42745098039215684/1/0.5879999999999999; linear_regression 0.6733333333333332/0.5283333333333333/0.5798412698412698; decision_tree 0.5939393939393939/0.5783333333333334/0.5640350877192982; svm 0.5428571428571429/0.31166666666666665/0.3833333333333333",
			"random_forest 0.7616666666666667/0.8866666666666667/0.7866666666666666; naive_bayes 0.6666666666666667/0.9/0.755952380952381; decision_tree 0.6309523809523809/0.7961904761904762/0.6769230769230768; logistic_regression 0.58/0.5676190476190476/0.5676190476190477; linear_regression 0.6333333333333333/0.39714285714285713/0.4593650793650794; svm 0.8/0.3685714285714286/0.43095238095238103",
			"decision_tree 0.9166666666666667/0.85/0.8766666666666667; random_forest 0.8080952380952381/0.9166666666666667/0.8480952380952381; naive_bayes 0.76/0.8416666666666666/0.7902164502164502; logistic_regression 0.7533333333333333/0.7766666666666666/0.7602164502164502; svm 0.9333333333333332/0.6516666666666666/0.7582905982905983; linear_regression 0.8433333333333334/0.6766666666666665/0.7366666666666667",
			"random_forest 0.6528571428571429/0.86/0.6944444444444444; decision_tree 0.6/0.78/0.6262626262626263; naive_bayes 0.35347985347985345/1/0.49976865240023133; logistic_regression 0.44000000000000006/0.52/0.4166666666666667; svm 0.67/0.48/0.3942857142857143; linear_regression 0.6/0.27/0.31666666666666665",
			"decision_tree 0.8714285714285716/0.8133333333333332/0.8140526140526141; random_forest 0.7666666666666667/0.86/0.8051948051948052; logistic_regression 0.7366666666666666/0.7/0.7139393939393939; naive_bayes 0.49848484848484853/1/0.6547619047619048; linear_regression 0.7333333333333333/0.5866666666666667/0.6387878787878788; svm 0.5666666666666667/0.24666666666666667/0.3404761904761905",
		}},
		{"CVWithCase", `E4 "best after fix"`, func(r *Report) string { return cvLine(r.CVWithCase) }, [5]string{
			"naive_bayes 0.8154545454545454/1/0.8898496240601504; linear_regression 0.8333333333333333/0.96/0.8806349206349207; logistic_regression 0.8333333333333333/0.96/0.8806349206349207; random_forest 0.8333333333333333/0.96/0.8806349206349207; decision_tree 0.8333333333333333/0.9349999999999999/0.8673015873015872; svm 0.7333333333333333/0.49333333333333335/0.5853968253968254",
			"decision_tree 0.9464285714285715/0.9333333333333332/0.9312820512820513; logistic_regression 0.846984126984127/1/0.9096153846153847; random_forest 0.846984126984127/1/0.9096153846153847; linear_regression 0.8422222222222222/0.9666666666666668/0.8916666666666668; naive_bayes 0.8422222222222222/0.9666666666666668/0.8916666666666668; svm 0.8214285714285715/0.4780952380952381/0.5714285714285714",
			"linear_regression 1/0.96/0.9777777777777779; logistic_regression 1/0.96/0.9777777777777779; random_forest 1/0.96/0.9777777777777779; naive_bayes 0.9400000000000001/0.9349999999999999/0.9333333333333332; decision_tree 0.9/0.96/0.9206349206349206; svm 1/0.6966666666666665/0.8057142857142857",
			"random_forest 0.840952380952381/0.96/0.8929292929292929; linear_regression 0.82/0.96/0.8828282828282827; logistic_regression 0.7366666666666667/0.9199999999999999/0.804040404040404; decision_tree 0.78/0.8300000000000001/0.7847619047619048; naive_bayes 0.6123809523809525/1/0.7444444444444444; svm 0.7333333333333333/0.61/0.6547619047619048",
			"logistic_regression 0.8261904761904763/0.96/0.8835497835497834; random_forest 0.8314285714285715/0.8933333333333333/0.8597668997668999; naive_bayes 0.7607142857142858/1/0.8586080586080586; linear_regression 0.8333333333333334/0.86/0.8424242424242424; decision_tree 0.7428571428571429/0.74/0.7333333333333334; svm 0.8266666666666665/0.4866666666666667/0.5933333333333334",
		}},
		{"BestFinal", `Known divergence 3 "Winning matcher family after the feature fix"`, func(r *Report) string { return r.BestFinal }, [5]string{
			"naive_bayes", "decision_tree", "linear_regression", "random_forest", "logistic_regression",
		}},
		{"LOOCVFlagged", `E3 "LOOCV label debugging"`, func(r *Report) string { return strconv.Itoa(r.LOOCVFlagged) }, [5]string{
			"15", "15", "11", "26", "12",
		}},
		{"LabelRevisions", `E3 "LOOCV label debugging"`, func(r *Report) string { return strconv.Itoa(r.LabelRevisions) }, [5]string{
			"3", "6", "3", "9", "6",
		}},
		{"FinalMatches", `E8 "final matches"`, func(r *Report) string { return strconv.Itoa(r.FinalMatches) }, [5]string{
			"547", "498", "592", "525", "572",
		}},
		{"GoldFinal", `E8 "final P" / "final R"`, func(r *Report) string { return confusionLine(r.GoldFinal) }, [5]string{
			"TP=531 FP=7 TN=0 FN=40", "TP=491 FP=3 TN=0 FN=80", "TP=556 FP=19 TN=0 FN=15", "TP=513 FP=7 TN=0 FN=58", "TP=549 FP=10 TN=0 FN=22",
		}},
		{"Deployment", `E11 "The Figure 10 workflow serializes"`, func(r *Report) string { return specDigest(t, r.Deployment) }, [5]string{
			"9e3edb58bfcf947cdbd91dce6d121c491c206d0000e13564a0fd447b3eba9942",
			"436defbe709b144a75f401b2082f173f32058df77181b17bd63a507dfa4df02c",
			"0f772a7cd04c90cf205a299737a00dd98644b4eec996fd72c954c01dbdf39d76",
			"217193372627905b1b789beb4cab8f62e9f0eae633b2c52c92949ef9090c9435",
			"c07798fe564959fcca471b6d1f6916fb67a8b12c6682b3afbfd7eb5c4fee9d61",
		}},
	}
	var reports [5]*Report
	for i := range reports {
		cfg := TestConfig(0.6)
		cfg.Params.Seed = 41
		cfg.Seed = 41 + int64(i)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("study seed %d: %v", cfg.Seed, err)
		}
		reports[i] = rep
	}
	for _, row := range rows {
		for i, rep := range reports {
			if got := row.got(rep); got != row.want[i] {
				t.Errorf("%s, study seed %d (guards EXPERIMENTS.md %s):\n got %s\nwant %s", row.output, 41+i, row.guards, got, row.want[i])
			}
		}
	}
}

// cvLine renders selection results in their ranked order, every float in
// its shortest exact form.
func cvLine(rs []ml.CVResult) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s %s/%s/%s", r.Name, g(r.Precision), g(r.Recall), g(r.F1))
	}
	return strings.Join(parts, "; ")
}

// specDigest is the sha256 of the spec's JSON, as the study ships it.
func specDigest(t *testing.T, spec *workflow.Spec) string {
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func confusionLine(c ml.Confusion) string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d", c.TP, c.FP, c.TN, c.FN)
}
