package block

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

func grantsTables(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	left := table.New("U", table.MustSchema(
		table.Field{Name: "AwardNumber", Kind: table.String},
		table.Field{Name: "AwardTitle", Kind: table.String},
	))
	left.MustAppend(table.Row{table.S("10.200 2008-34103-19449"), table.S("DEVELOPMENT OF IPM-BASED CORN FUNGICIDE GUIDELINES FOR THE NORTH CENTRAL STATES")})
	left.MustAppend(table.Row{table.S("10.203 WIS01040"), table.S("SWAMP DODDER APPLIED ECOLOGY")})
	left.MustAppend(table.Row{table.Null(table.String), table.S("Lab Supplies")})

	right := table.New("S", table.MustSchema(
		table.Field{Name: "AwardNumber", Kind: table.String},
		table.Field{Name: "AwardTitle", Kind: table.String},
	))
	right.MustAppend(table.Row{table.S("2008-34103-19449"), table.S("Development of IPM-Based Corn Fungicide Guidelines for the North Central States")})
	right.MustAppend(table.Row{table.Null(table.String), table.S("Swamp Dodder Applied Ecology and Management")})
	right.MustAppend(table.Row{table.S("2001-34101-10526"), table.S("Wildland-Urban Interface During the 1990's")})
	return left, right
}

// suffix extracts the text after the first space (the second part of a
// UMETRICS UniqueAwardNumber).
func suffix(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[i+1:]
	}
	return ""
}

func TestCandidateSetBasics(t *testing.T) {
	l, r := grantsTables(t)
	c := NewCandidateSet(l, r)
	if !c.Add(Pair{0, 0}) {
		t.Fatal("first add should be new")
	}
	if c.Add(Pair{0, 0}) {
		t.Fatal("duplicate add should be ignored")
	}
	c.Add(Pair{1, 1})
	if c.Len() != 2 || !c.Contains(Pair{1, 1}) || c.Contains(Pair{2, 2}) {
		t.Fatal("membership wrong")
	}
	if c.Pair(0) != (Pair{0, 0}) {
		t.Fatal("pair order wrong")
	}
}

func TestCandidateSetAlgebra(t *testing.T) {
	l, r := grantsTables(t)
	c1 := NewCandidateSet(l, r)
	c1.Add(Pair{0, 0})
	c1.Add(Pair{1, 1})
	c2 := NewCandidateSet(l, r)
	c2.Add(Pair{1, 1})
	c2.Add(Pair{2, 2})

	u, err := c1.Union(c2)
	if err != nil || u.Len() != 3 {
		t.Fatalf("union: %v len=%d", err, u.Len())
	}
	m, err := c1.Minus(c2)
	if err != nil || m.Len() != 1 || !m.Contains(Pair{0, 0}) {
		t.Fatalf("minus: %v %v", err, m.Pairs())
	}
	i, err := c1.Intersect(c2)
	if err != nil || i.Len() != 1 || !i.Contains(Pair{1, 1}) {
		t.Fatalf("intersect: %v %v", err, i.Pairs())
	}

	other := NewCandidateSet(r, l)
	if _, err := c1.Union(other); err == nil {
		t.Fatal("union across different tables should error")
	}
	if _, err := c1.Minus(other); err == nil {
		t.Fatal("minus across different tables should error")
	}
	if _, err := c1.Intersect(other); err == nil {
		t.Fatal("intersect across different tables should error")
	}
}

func TestCandidateSetSampleAndFilter(t *testing.T) {
	l, r := grantsTables(t)
	c := NewCandidateSet(l, r)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c.Add(Pair{i, j})
		}
	}
	s, err := c.Sample(4, rand.New(rand.NewSource(1)))
	if err != nil || len(s) != 4 {
		t.Fatalf("sample: %v %v", err, s)
	}
	if _, err := c.Sample(10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("oversample should error")
	}
	f := c.Filter(func(p Pair) bool { return p.A == p.B })
	if f.Len() != 3 {
		t.Fatalf("filter len = %d", f.Len())
	}
	sorted := c.Sorted()
	if sorted[0] != (Pair{0, 0}) || sorted[8] != (Pair{2, 2}) {
		t.Fatal("sorted order wrong")
	}
}

func TestAttrEquivWithTransform(t *testing.T) {
	l, r := grantsTables(t)
	b := AttrEquiv{
		LeftCol: "AwardNumber", RightCol: "AwardNumber",
		LeftTransform: suffix,
	}
	c, err := b.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || !c.Contains(Pair{0, 0}) {
		t.Fatalf("M1 blocking: %v", c.Pairs())
	}
	if !strings.Contains(b.Name(), "attr_equiv") {
		t.Fatal("name")
	}
}

func TestAttrEquivNullsDropped(t *testing.T) {
	l, r := grantsTables(t)
	// Without transforms, no left award number equals a right one, and
	// nulls must not join with anything.
	c, err := AttrEquiv{LeftCol: "AwardNumber", RightCol: "AwardNumber"}.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("expected empty, got %v", c.Pairs())
	}
}

func TestAttrEquivUnknownColumn(t *testing.T) {
	l, r := grantsTables(t)
	if _, err := (AttrEquiv{LeftCol: "Nope", RightCol: "AwardNumber"}).Block(context.Background(), l, r); err == nil {
		t.Fatal("unknown left column should error")
	}
	if _, err := (AttrEquiv{LeftCol: "AwardNumber", RightCol: "Nope"}).Block(context.Background(), l, r); err == nil {
		t.Fatal("unknown right column should error")
	}
}

func TestOverlapBlocker(t *testing.T) {
	l, r := grantsTables(t)
	b := Overlap{
		LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true,
	}
	c, err := b.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	// Corn titles share many tokens; swamp dodder shares 4 ("swamp",
	// "dodder", "applied", "ecology"); lab supplies shares none.
	if !c.Contains(Pair{0, 0}) || !c.Contains(Pair{1, 1}) {
		t.Fatalf("overlap missed true pairs: %v", c.Pairs())
	}
	for _, p := range c.Pairs() {
		if p.A == 2 {
			t.Fatal("lab supplies should not survive K=3")
		}
	}
}

func TestOverlapThresholdMonotone(t *testing.T) {
	l, r := grantsTables(t)
	prev := -1
	for _, k := range []int{1, 2, 3, 5, 8} {
		c, err := Overlap{
			LeftCol: "AwardTitle", RightCol: "AwardTitle",
			Tokenizer: tokenize.Word{}, Threshold: k, Normalize: true,
		}.Block(context.Background(), l, r)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && c.Len() > prev {
			t.Fatalf("candidate count must not grow with K: K=%d len=%d prev=%d", k, c.Len(), prev)
		}
		prev = c.Len()
	}
}

func TestOverlapValidation(t *testing.T) {
	l, r := grantsTables(t)
	if _, err := (Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle", Threshold: 3}).Block(context.Background(), l, r); err == nil {
		t.Fatal("missing tokenizer should error")
	}
	if _, err := (Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tokenize.Word{}, Threshold: 0}).Block(context.Background(), l, r); err == nil {
		t.Fatal("threshold 0 should error")
	}
}

func TestOverlapCoefficientBlocker(t *testing.T) {
	// Short titles: overlap K=3 cannot fire, coefficient can.
	l := table.New("L", table.MustSchema(table.Field{Name: "T", Kind: table.String}))
	l.MustAppend(table.Row{table.S("Swamp Dodder")})
	r := table.New("R", table.MustSchema(table.Field{Name: "T", Kind: table.String}))
	r.MustAppend(table.Row{table.S("swamp dodder ecology")})

	ov, err := Overlap{LeftCol: "T", RightCol: "T", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true}.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Len() != 0 {
		t.Fatal("overlap K=3 should drop the short title")
	}
	oc, err := OverlapCoefficient{LeftCol: "T", RightCol: "T", Tokenizer: tokenize.Word{}, Threshold: 0.7, Normalize: true}.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Len() != 1 {
		t.Fatalf("coefficient blocker should keep the short title: %v", oc.Pairs())
	}
}

func TestOverlapCoefficientValidation(t *testing.T) {
	l, r := grantsTables(t)
	if _, err := (OverlapCoefficient{LeftCol: "AwardTitle", RightCol: "AwardTitle", Threshold: 0.7}).Block(context.Background(), l, r); err == nil {
		t.Fatal("missing tokenizer should error")
	}
	if _, err := (OverlapCoefficient{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tokenize.Word{}, Threshold: 0}).Block(context.Background(), l, r); err == nil {
		t.Fatal("threshold 0 should error")
	}
	if _, err := (OverlapCoefficient{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tokenize.Word{}, Threshold: 1.5}).Block(context.Background(), l, r); err == nil {
		t.Fatal("threshold >1 should error")
	}
}

func TestFuncBlocker(t *testing.T) {
	l, r := grantsTables(t)
	b := Func{Label: "same-first-char", Keep: func(lr, rr table.Row) bool {
		a, bb := lr[1].Str(), rr[1].Str()
		return len(a) > 0 && len(bb) > 0 && strings.EqualFold(a[:1], bb[:1])
	}}
	c, err := b.Block(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(Pair{0, 0}) || !c.Contains(Pair{1, 1}) {
		t.Fatalf("func blocker: %v", c.Pairs())
	}
	if _, err := (Func{}).Block(context.Background(), l, r); err == nil {
		t.Fatal("missing predicate should error")
	}
	if (Func{}).Name() != "func" || b.Name() != "func(same-first-char)" {
		t.Fatal("names")
	}
}

func TestUnionBlock(t *testing.T) {
	l, r := grantsTables(t)
	c, err := UnionBlockCtx(context.Background(), l, r,
		AttrEquiv{LeftCol: "AwardNumber", RightCol: "AwardNumber", LeftTransform: suffix},
		Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(Pair{0, 0}) || !c.Contains(Pair{1, 1}) {
		t.Fatalf("union block: %v", c.Pairs())
	}
	// An erroring blocker propagates.
	if _, err := UnionBlockCtx(context.Background(), l, r, Overlap{LeftCol: "Nope", RightCol: "AwardTitle", Tokenizer: tokenize.Word{}, Threshold: 1}); err == nil {
		t.Fatal("union should propagate blocker errors")
	}
}

func TestDebuggerFindsDroppedSimilarPair(t *testing.T) {
	l, r := grantsTables(t)
	// Candidate set that deliberately misses the similar pair {1,1}.
	c := NewCandidateSet(l, r)
	c.Add(Pair{0, 0})

	d := Debugger{Cols: map[string]string{"AwardTitle": "AwardTitle"}, K: 10}
	top, err := d.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("debugger found nothing")
	}
	found := false
	for _, dp := range top {
		if dp.Pair == (Pair{1, 1}) {
			found = true
		}
		if cInSet := c.Contains(dp.Pair); cInSet {
			t.Fatal("debugger must not return pairs already in C")
		}
		if dp.Score <= 0 || dp.Score > 1 {
			t.Fatalf("score out of range: %v", dp.Score)
		}
	}
	if !found {
		t.Fatalf("debugger missed the dropped similar pair: %+v", top)
	}
	// Scores must be sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("debug pairs not sorted by score")
		}
	}
}

func TestDebuggerValidation(t *testing.T) {
	l, r := grantsTables(t)
	c := NewCandidateSet(l, r)
	if _, err := (Debugger{}).Run(c); err == nil {
		t.Fatal("debugger without columns should error")
	}
	if _, err := (Debugger{Cols: map[string]string{"Nope": "AwardTitle"}}).Run(c); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestDebuggerKLimit(t *testing.T) {
	l, r := grantsTables(t)
	c := NewCandidateSet(l, r)
	d := Debugger{Cols: map[string]string{"AwardTitle": "AwardTitle"}, K: 1}
	top, err := d.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) > 1 {
		t.Fatalf("K=1 returned %d", len(top))
	}
}
