package block

import (
	"context"
	"testing"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

func TestDedup(t *testing.T) {
	tab := table.New("people", table.MustSchema(table.Field{Name: "Name", Kind: table.String}))
	for _, n := range []string{
		"David Smith",
		"David M Smith", // duplicate of 0
		"Joe Wilson",
		"Dan Brown",
	} {
		tab.MustAppend(table.Row{table.S(n)})
	}
	cand, err := Dedup(context.Background(), tab, Overlap{
		LeftCol: "Name", RightCol: "Name",
		Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the Smith pair shares two tokens; no self pairs; A < B.
	if cand.Len() != 1 || !cand.Contains(Pair{A: 0, B: 1}) {
		t.Fatalf("dedup candidates: %v", cand.Pairs())
	}
	for _, p := range cand.Pairs() {
		if p.A >= p.B {
			t.Fatalf("pair not canonicalized: %v", p)
		}
	}
}

func TestDedupErrorPropagates(t *testing.T) {
	tab := table.New("x", table.MustSchema(table.Field{Name: "Name", Kind: table.String}))
	tab.MustAppend(table.Row{table.S("a")})
	if _, err := Dedup(context.Background(), tab, Overlap{LeftCol: "Nope", RightCol: "Nope", Tokenizer: tokenize.Word{}, Threshold: 1}); err == nil {
		t.Fatal("blocker error should propagate")
	}
}

func TestDedupSelfPairsExcluded(t *testing.T) {
	tab := table.New("x", table.MustSchema(table.Field{Name: "Name", Kind: table.String}))
	tab.MustAppend(table.Row{table.S("same words here")})
	tab.MustAppend(table.Row{table.S("same words here")})
	cand, err := Dedup(context.Background(), tab, AttrEquiv{LeftCol: "Name", RightCol: "Name"})
	if err != nil {
		t.Fatal(err)
	}
	// The AE blocker on t×t produces (0,0),(0,1),(1,0),(1,1); dedup keeps
	// only (0,1).
	if cand.Len() != 1 || !cand.Contains(Pair{A: 0, B: 1}) {
		t.Fatalf("dedup self-join: %v", cand.Pairs())
	}
}
