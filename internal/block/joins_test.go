package block

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

func titleTables(t *testing.T, leftTitles, rightTitles []string) (*table.Table, *table.Table) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(table.Field{Name: "Title", Kind: table.String})
	}
	l := table.New("L", schema())
	for _, s := range leftTitles {
		l.MustAppend(table.Row{table.S(s)})
	}
	r := table.New("R", schema())
	for _, s := range rightTitles {
		r.MustAppend(table.Row{table.S(s)})
	}
	return l, r
}

func TestJaccardJoin(t *testing.T) {
	l, r := titleTables(t,
		[]string{"corn fungicide guidelines north central", "swamp dodder ecology", "dairy cattle genetics"},
		[]string{"corn fungicide guidelines north central states", "swamp dodder", "potato blight forecasting"},
	)
	b := JaccardJoin{LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 0.6, Normalize: true}
	c, err := b.Block(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0): 5/6 = 0.83 ✓; (1,1): 2/3 = 0.67 ✓; others below threshold.
	if !c.Contains(Pair{A: 0, B: 0}) || !c.Contains(Pair{A: 1, B: 1}) {
		t.Fatalf("join missed similar pairs: %v", c.Pairs())
	}
	if c.Len() != 2 {
		t.Fatalf("join kept extra pairs: %v", c.Pairs())
	}
	if !strings.Contains(b.Name(), "jaccard_join") {
		t.Error("name")
	}
}

func TestJaccardJoinValidation(t *testing.T) {
	l, r := titleTables(t, []string{"a"}, []string{"a"})
	if _, err := (JaccardJoin{LeftCol: "Title", RightCol: "Title", Threshold: 0.5}).Block(l, r); err == nil {
		t.Fatal("missing tokenizer should error")
	}
	if _, err := (JaccardJoin{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0}).Block(l, r); err == nil {
		t.Fatal("zero threshold should error")
	}
	if _, err := (JaccardJoin{LeftCol: "Nope", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.5}).Block(l, r); err == nil {
		t.Fatal("unknown column should error")
	}
}

// Property: the join returns EXACTLY the pairs a naive quadratic scan
// finds — probing an index must never change the answer.
func TestJaccardJoinEquivalentToNaive(t *testing.T) {
	words := []string{"corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm"}
	gen := func(rng *rand.Rand) string {
		n := 1 + rng.Intn(4)
		out := make([]string, n)
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(out, " ")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ls, rs []string
		for i := 0; i < 12; i++ {
			ls = append(ls, gen(rng))
			rs = append(rs, gen(rng))
		}
		l, _ := titleTables(t, ls, rs)
		_, r := titleTables(t, ls, rs)
		threshold := 0.3 + rng.Float64()*0.6
		join := JaccardJoin{LeftCol: "Title", RightCol: "Title",
			Tokenizer: tokenize.Word{}, Threshold: threshold, Normalize: true}
		got, err := join.Block(l, r)
		if err != nil {
			return false
		}
		tok := tokenize.Word{}
		for i := 0; i < l.Len(); i++ {
			for j := 0; j < r.Len(); j++ {
				a := tok.Tokens(tokenize.Normalize(l.Get(i, "Title").Str()))
				b := tok.Tokens(tokenize.Normalize(r.Get(j, "Title").Str()))
				want := simfunc.Jaccard(a, b) >= threshold
				if got.Contains(Pair{A: i, B: j}) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// A pair meeting the threshold exactly is kept: a 100-token cell
	// against each of its suffixes, at thresholds where n/100 and t*100
	// round apart in floating point (100*0.07 = 7.000000000000001).
	toks := make([]string, 100)
	for i := range toks {
		toks[i] = fmt.Sprintf("t%02d", i)
	}
	var suffixes []string
	for n := 1; n <= len(toks); n++ {
		suffixes = append(suffixes, strings.Join(toks[len(toks)-n:], " "))
	}
	l, r := titleTables(t, []string{strings.Join(toks, " ")}, suffixes)
	for _, threshold := range []float64{0.07, 0.29, 0.57, 0.58} {
		join := JaccardJoin{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: threshold}
		checkAgainstNaive(t, join, l, r, func(l, r *table.Table) []Pair {
			return naivePairs(l, r, "Title", tokenize.Word{}, false, func(a, b []string) bool {
				return simfunc.Jaccard(a, b) >= threshold
			})
		})
		got, err := join.Block(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(threshold*100 + 0.5); !got.Contains(Pair{A: 0, B: n - 1}) || got.Len() != 100-n+1 {
			t.Fatalf("threshold %v: the %d-token suffix scores exactly %v and must be kept; got %d pairs", threshold, n, threshold, got.Len())
		}
	}
}

func TestSortedNeighborhood(t *testing.T) {
	l, r := titleTables(t,
		[]string{"anderson", "meyer", "zimmerman"},
		[]string{"andersen", "meier", "zimmermann"},
	)
	b := SortedNeighborhood{LeftCol: "Title", RightCol: "Title", Window: 2}
	c, err := b.Block(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent in sort order: andersen/anderson, meier/meyer,
	// zimmerman/zimmermann.
	for _, p := range []Pair{{0, 0}, {1, 1}, {2, 2}} {
		if !c.Contains(p) {
			t.Errorf("window missed neighbor pair %v: %v", p, c.Pairs())
		}
	}
	if !strings.Contains(b.Name(), "sorted_neighborhood") {
		t.Error("name")
	}
}

func TestSortedNeighborhoodWithKey(t *testing.T) {
	l, r := titleTables(t, []string{"Meyer"}, []string{"MEIER"})
	b := SortedNeighborhood{LeftCol: "Title", RightCol: "Title", Window: 2,
		Key: simfunc.Soundex}
	c, err := b.Block(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(Pair{A: 0, B: 0}) {
		t.Fatalf("soundex key should neighbor Meyer/MEIER: %v", c.Pairs())
	}
}

func TestSortedNeighborhoodValidation(t *testing.T) {
	l, r := titleTables(t, []string{"a"}, []string{"a"})
	if _, err := (SortedNeighborhood{LeftCol: "Title", RightCol: "Title", Window: 1}).Block(l, r); err == nil {
		t.Fatal("window < 2 should error")
	}
	if _, err := (SortedNeighborhood{LeftCol: "Nope", RightCol: "Title"}).Block(l, r); err == nil {
		t.Fatal("unknown column should error")
	}
	// Default window pairs identical keys.
	c, err := (SortedNeighborhood{LeftCol: "Title", RightCol: "Title"}).Block(l, r)
	if err != nil || !c.Contains(Pair{A: 0, B: 0}) {
		t.Fatalf("default window: %v %v", c, err)
	}
}

func TestFilterCandidates(t *testing.T) {
	l, r := titleTables(t, []string{"corn alpha", "corn beta"}, []string{"corn alpha", "corn gamma"})
	cheap, err := (Overlap{LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true}).Block(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Len() != 4 {
		t.Fatalf("cheap blocker: %v", cheap.Pairs())
	}
	refined, err := FilterCandidates(cheap, "exact-title", func(a, b table.Row) bool {
		return strings.EqualFold(a[0].Str(), b[0].Str())
	})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Len() != 1 || !refined.Contains(Pair{A: 0, B: 0}) {
		t.Fatalf("refined: %v", refined.Pairs())
	}
	if _, err := FilterCandidates(cheap, "nil", nil); err == nil {
		t.Fatal("nil predicate should error")
	}
}

func TestDownSample(t *testing.T) {
	// 60 matching title pairs plus 140 unrelated left rows.
	var ls, rs []string
	for i := 0; i < 60; i++ {
		title := "grant " + string(rune('a'+i%26)) + " corn fungicide " + string(rune('a'+i/26))
		ls = append(ls, title)
		rs = append(rs, title)
	}
	for i := 0; i < 140; i++ {
		ls = append(ls, "unrelated filler row number "+string(rune('a'+i%26)))
	}
	for i := 0; i < 40; i++ {
		rs = append(rs, "other right side content "+string(rune('a'+i%26)))
	}
	l, r := titleTables(t, ls, rs)

	rng := rand.New(rand.NewSource(5))
	dl, dr, err := DownSample(l, r, []string{"Title"}, 50, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Len() != 50 || dr.Len() != 30 {
		t.Fatalf("down-sampled sizes: %d, %d", dl.Len(), dr.Len())
	}
	// The kept left rows must be enriched in rows sharing tokens with
	// the sampled right rows (vs the 30% base rate of matching rows).
	shared := 0
	for i := 0; i < dl.Len(); i++ {
		if strings.Contains(dl.Get(i, "Title").Str(), "corn") {
			shared++
		}
	}
	if shared < 30 {
		t.Fatalf("down-sample kept only %d/50 match-bearing rows", shared)
	}
}

func TestDownSampleValidation(t *testing.T) {
	l, r := titleTables(t, []string{"a"}, []string{"a"})
	rng := rand.New(rand.NewSource(1))
	if _, _, err := DownSample(l, r, nil, 1, 1, rng); err == nil {
		t.Fatal("no columns should error")
	}
	if _, _, err := DownSample(l, r, []string{"Title"}, 1, 5, rng); err == nil {
		t.Fatal("oversized sizeB should error")
	}
	if _, _, err := DownSample(l, r, []string{"Title"}, 5, 1, rng); err == nil {
		t.Fatal("oversized sizeLeft should error")
	}
	if _, _, err := DownSample(l, r, []string{"Nope"}, 1, 1, rng); err == nil {
		t.Fatal("unknown column should error")
	}
}
