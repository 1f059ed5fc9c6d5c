// Dedup example: the single-table EM scenario ("matching tuples within a
// single table", paper §2). A researcher roster accumulated duplicate
// rows with name and department variations; block the table against
// itself, score the candidate pairs with similarity rules, and group the
// duplicates into entity clusters. Run with:
//
//	go run ./examples/dedup
package main

import (
	"context"
	"fmt"
	"log"

	"emgo/internal/block"
	"emgo/internal/cluster"
	"emgo/internal/rules"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

func main() {
	roster := table.New("roster", table.MustSchema(
		table.Field{Name: "Name", Kind: table.String},
		table.Field{Name: "Department", Kind: table.String},
	))
	for _, r := range [][2]string{
		{"KERMICLE, J.L", "Genetics"},
		{"Kermicle, J. L.", "Genetics"},  // dup of 0
		{"Jerry L Kermicle", "Genetics"}, // dup of 0
		{"HAMMER, R", "Forest Ecology"},
		{"Hammer, Roger", "Forest Ecology"}, // dup of 3
		{"ESKER, PAUL", "Plant Pathology"},
		{"COLQUHOUN, J", "Horticulture"},
		{"Colquhoun, Jed", "Horticulture"}, // dup of 6
		{"SMITH, DAVID", "Agronomy"},
		{"SMITH, DANIEL", "Soil Science"}, // NOT a dup of 8
	} {
		roster.MustAppend(table.Row{table.S(r[0]), table.S(r[1])})
	}

	// Self-block: candidate pairs share a name token (case-insensitive).
	cand, err := block.Dedup(context.Background(), roster, block.Overlap{
		LeftCol: "Name", RightCol: "Name",
		Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-blocking: %d candidate pairs from %d rows\n", cand.Len(), roster.Len())

	// Match rule: same department AND similar names (Monge-Elkan over
	// lowercased word tokens handles initials and reordering).
	nameCol, _ := roster.Col("Name")
	deptCol, _ := roster.Col("Department")
	word := tokenize.Word{}
	same := rules.Func{Label: "same-person", Verdict: rules.Match, Fire: func(a, b table.Row) bool {
		if !a[deptCol].Equal(b[deptCol]) {
			return false
		}
		ta := word.Tokens(tokenize.Lower(a[nameCol].Str()))
		tb := word.Tokens(tokenize.Lower(b[nameCol].Str()))
		me := (simfunc.MongeElkan(ta, tb) + simfunc.MongeElkan(tb, ta)) / 2
		return me > 0.75
	}}
	engine := rules.NewEngine(same)
	matches, _, _ := engine.MarkPairs(cand)
	fmt.Printf("matched %d duplicate pairs\n", matches.Len())

	// Group into entities.
	clusters := cluster.ConnectedComponents(matches)
	fmt.Printf("%d duplicate clusters:\n", len(clusters))
	for _, c := range clusters {
		seen := map[int]bool{}
		fmt.Print("  {")
		first := true
		for _, lists := range [][]int{c.Left, c.Right} {
			for _, i := range lists {
				if seen[i] {
					continue
				}
				seen[i] = true
				if !first {
					fmt.Print(" | ")
				}
				first = false
				fmt.Printf("%s", roster.Get(i, "Name").Str())
			}
		}
		fmt.Println("}")
	}
}
