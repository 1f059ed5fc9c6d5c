// Quickstart: match the two small person tables of the paper's Figure 1
// — (Dave Smith, Madison, WI) against (David D. Smith, Madison, WI) —
// using the public core API with a similarity-rule matcher. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/rules"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

func main() {
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "Name", Kind: table.String},
			table.Field{Name: "City", Kind: table.String},
			table.Field{Name: "State", Kind: table.String},
		)
	}

	// Table A and Table B, exactly as in Figure 1 of the paper.
	a := table.New("A", schema())
	a.MustAppend(table.Row{table.S("Dave Smith"), table.S("Madison"), table.S("WI")})
	a.MustAppend(table.Row{table.S("Joe Wilson"), table.S("San Jose"), table.S("CA")})
	a.MustAppend(table.Row{table.S("Dan Smith"), table.S("Middleton"), table.S("WI")})

	b := table.New("B", schema())
	b.MustAppend(table.Row{table.S("David D. Smith"), table.S("Madison"), table.S("WI")})
	b.MustAppend(table.Row{table.S("Daniel W. Smith"), table.S("Middleton"), table.S("WI")})

	project, err := core.NewProject("figure1", a, b, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 of the how-to guide: understand the data.
	left, right := project.Profile()
	fmt.Println(left)
	fmt.Println(right)

	// Step 2: block. People in different states cannot match.
	project.AddBlocker(block.AttrEquiv{LeftCol: "State", RightCol: "State"})
	cand, err := project.Block(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocking kept %d of %d pairs\n\n", cand.Len(), a.Len()*b.Len())

	// Step 3: match. With five rows there is nothing to learn from, so
	// use a hand-crafted rule — same city and similar name.
	nameCol, _ := a.Col("Name")
	cityCol, _ := a.Col("City")
	project.AddSureRule(rules.Func{
		Label:   "same-city-similar-name",
		Verdict: rules.Match,
		Fire: func(l, r table.Row) bool {
			if !l[cityCol].Equal(r[cityCol]) {
				return false
			}
			tok := tokenize.Word{}
			sim := simfunc.MongeElkan(tok.Tokens(l[nameCol].Str()), tok.Tokens(r[nameCol].Str()))
			return sim > 0.8
		},
	})
	res, err := project.Match(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("matches:")
	for _, p := range res.Final.Sorted() {
		fmt.Printf("  (a%d, b%d): %q <-> %q\n",
			p.A+1, p.B+1, a.Get(p.A, "Name").Str(), b.Get(p.B, "Name").Str())
	}
	// Expected, as in Figure 1: (a1, b1) and (a3, b2).
}
