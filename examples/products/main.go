// Products example: match two e-commerce catalogs — the classic EM
// benchmark setting (Walmart-Amazon style) the paper's related work cites
// — with the same pipeline the case study uses: q-gram blocking on
// product titles, auto-generated features over title/brand/price, a
// learned matcher selected by cross-validation, and a hand-crafted
// negative rule (different model numbers cannot match). Run with:
//
//	go run ./examples/products
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// catalogs builds two synthetic product catalogs with known matches. The
// same product appears with retailer-specific title formatting; model
// numbers identify products exactly but are missing from one side for a
// third of the rows.
func catalogs(seed int64) (left, right *table.Table, truth map[block.Pair]bool) {
	rng := rand.New(rand.NewSource(seed))
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "Title", Kind: table.String},
			table.Field{Name: "Brand", Kind: table.String},
			table.Field{Name: "Model", Kind: table.String},
			table.Field{Name: "Price", Kind: table.Float},
		)
	}
	brands := []string{"Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne"}
	nouns := []string{"wireless mouse", "mechanical keyboard", "usb hub", "webcam",
		"gaming headset", "laptop stand", "monitor arm", "desk lamp",
		"portable ssd", "power bank", "bluetooth speaker", "hdmi cable",
		"phone charger", "trackball", "ergonomic chair", "microphone"}
	adjectives := []string{"pro", "max", "ultra", "mini", "plus", "lite", "air", "go"}
	titleCase := func(s string) string {
		if s == "" {
			return s
		}
		parts := strings.Fields(s)
		for i, w := range parts {
			parts[i] = strings.ToUpper(w[:1]) + w[1:]
		}
		return strings.Join(parts, " ")
	}

	left = table.New("storeA", schema())
	right = table.New("storeB", schema())
	truth = map[block.Pair]bool{}

	n := 120
	rightRows := 0
	for i := 0; i < n; i++ {
		brand := brands[rng.Intn(len(brands))]
		noun := nouns[rng.Intn(len(nouns))]
		adj := adjectives[rng.Intn(len(adjectives))]
		model := fmt.Sprintf("%s-%04d", strings.ToUpper(brand[:2]), 1000+i)
		price := 10 + rng.Float64()*190

		// Store A: "Acme Pro Wireless Mouse AC-1003".
		titleA := fmt.Sprintf("%s %s %s %s", brand, titleCase(adj), titleCase(noun), model)
		left.MustAppend(table.Row{table.S(titleA), table.S(brand), table.S(model), table.F(price)})

		// 70% of products also appear in store B with different
		// formatting and a slightly different price.
		if rng.Float64() < 0.7 {
			titleB := fmt.Sprintf("%s %s - %s edition", strings.ToUpper(brand), noun, adj)
			modelB := table.S(model)
			if rng.Float64() < 0.33 {
				modelB = table.Null(table.String) // store B often omits models
			}
			right.MustAppend(table.Row{
				table.S(titleB), table.S(brand), modelB,
				table.F(price * (0.9 + rng.Float64()*0.2)),
			})
			truth[block.Pair{A: i, B: rightRows}] = true
			rightRows++
		}
	}
	// Store-B-only products (including lookalikes of store-A products —
	// same noun and brand, different model).
	for i := 0; i < 40; i++ {
		brand := brands[rng.Intn(len(brands))]
		noun := nouns[rng.Intn(len(nouns))]
		model := fmt.Sprintf("%s-%04d", strings.ToUpper(brand[:2]), 9000+i)
		right.MustAppend(table.Row{
			table.S(fmt.Sprintf("%s %s v2", brand, noun)),
			table.S(brand), table.S(model), table.F(10 + rng.Float64()*190),
		})
		rightRows++
	}
	return left, right, truth
}

func main() {
	left, right, truth := catalogs(11)
	project, err := core.NewProject("products", left, right, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Block on brand equality AND title token overlap, unioned with an
	// exact model-number join (the sure-match path).
	project.AddBlocker(block.AttrEquiv{LeftCol: "Model", RightCol: "Model"})
	project.AddBlocker(block.Overlap{
		LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true,
	})
	cand, err := project.Block(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocking: %d candidates from %d pairs\n", cand.Len(), left.Len()*right.Len())

	// Sure rule: equal model numbers.
	sure, err := rules.NewEqual("same-model", left, "Model", nil, right, "Model", nil, rules.Match)
	if err != nil {
		log.Fatal(err)
	}
	project.AddSureRule(sure)
	// Negative rule: both models present but different.
	neg, err := rules.NewComparableMismatch("model-mismatch",
		left, "Model", nil, right, "Model", nil,
		rules.Set{"XX-####"})
	if err != nil {
		log.Fatal(err)
	}
	project.AddNegativeRule(neg)

	// Label every candidate with the oracle (a real project would sample;
	// the catalogs are small enough to label outright).
	pairs, err := project.SamplePairs(cand.Len())
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		l := label.No
		if truth[p] {
			l = label.Yes
		}
		if err := project.SetLabel(p, l); err != nil {
			log.Fatal(err)
		}
	}

	corr := map[string]string{"Title": "Title", "Brand": "Brand", "Price": "Price"}
	order := []string{"Title", "Brand", "Price"}
	if err := project.GenerateFeatures(corr, order); err != nil {
		log.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(project.Features(), left, corr, []string{"Title"}); err != nil {
		log.Fatal(err)
	}

	cv, err := project.SelectMatcher(context.Background(), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matcher selection:")
	for _, r := range cv {
		fmt.Printf("  %-20s F1=%.3f\n", r.Name, r.F1)
	}

	res, err := project.Match(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", workflow.Stages(res.Report))

	tp, fp, fn := 0, 0, 0
	for _, p := range res.Final.Pairs() {
		if truth[p] {
			tp++
		} else {
			fp++
		}
	}
	for p := range truth {
		if !res.Final.Contains(p) {
			fn++
		}
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	fmt.Printf("gold: precision=%.3f recall=%.3f (%d TP, %d FP, %d FN)\n", p, r, tp, fp, fn)
}
