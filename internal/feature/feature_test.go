package feature

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/table"
)

func twoTables(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	left := table.New("L", table.MustSchema(
		table.Field{Name: "AwardNumber", Kind: table.String},
		table.Field{Name: "AwardTitle", Kind: table.String},
		table.Field{Name: "Amount", Kind: table.Float},
	))
	left.MustAppend(table.Row{
		table.S("2008-34103-19449"),
		table.S("DEVELOPMENT OF IPM-BASED CORN FUNGICIDE GUIDELINES"),
		table.F(1000),
	})
	left.MustAppend(table.Row{
		table.S("WIS01040"),
		table.S("SWAMP DODDER APPLIED ECOLOGY AND MANAGEMENT"),
		table.Null(table.Float),
	})
	right := table.New("R", table.MustSchema(
		table.Field{Name: "AwardNumber", Kind: table.String},
		table.Field{Name: "AwardTitle", Kind: table.String},
		table.Field{Name: "Amount", Kind: table.Float},
	))
	right.MustAppend(table.Row{
		table.S("2008-34103-19449"),
		table.S("Development of IPM-Based Corn Fungicide Guidelines"),
		table.F(1000),
	})
	right.MustAppend(table.Row{
		table.Null(table.String),
		table.S("Swamp Dodder Applied Ecology and Management"),
		table.F(500),
	})
	return left, right
}

var corr = map[string]string{
	"AwardNumber": "AwardNumber",
	"AwardTitle":  "AwardTitle",
	"Amount":      "Amount",
}

func TestInferType(t *testing.T) {
	l, _ := twoTables(t)
	at, err := InferType(l, "AwardNumber")
	if err != nil || at != ShortString {
		t.Fatalf("AwardNumber type = %v (%v)", at, err)
	}
	at, _ = InferType(l, "AwardTitle")
	if at != MediumString {
		t.Fatalf("AwardTitle type = %v", at)
	}
	at, _ = InferType(l, "Amount")
	if at != Numeric {
		t.Fatalf("Amount type = %v", at)
	}
	if _, err := InferType(l, "Nope"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestInferTypeDateBoolLongEmpty(t *testing.T) {
	tab := table.New("T", table.MustSchema(
		table.Field{Name: "D", Kind: table.Date},
		table.Field{Name: "B", Kind: table.Bool},
		table.Field{Name: "Long", Kind: table.String},
		table.Field{Name: "Empty", Kind: table.String},
	))
	long := strings.Repeat("tok ", 20)
	d, _ := table.ParseDate("2008-01-01")
	tab.MustAppend(table.Row{table.D(d), table.B(true), table.S(long), table.Null(table.String)})
	if at, _ := InferType(tab, "D"); at != DateAttr {
		t.Fatalf("date type = %v", at)
	}
	if at, _ := InferType(tab, "B"); at != BoolAttr {
		t.Fatalf("bool type = %v", at)
	}
	if at, _ := InferType(tab, "Long"); at != LongString {
		t.Fatalf("long type = %v", at)
	}
	if at, _ := InferType(tab, "Empty"); at != ShortString {
		t.Fatalf("empty string col type = %v", at)
	}
}

func TestAttrTypeString(t *testing.T) {
	names := map[AttrType]string{
		ShortString: "short_string", MediumString: "medium_string",
		LongString: "long_string", Numeric: "numeric", DateAttr: "date", BoolAttr: "bool",
	}
	for at, want := range names {
		if at.String() != want {
			t.Errorf("%d.String() = %q", int(at), at.String())
		}
	}
}

func TestGenerate(t *testing.T) {
	l, r := twoTables(t)
	set, err := Generate(l, r, corr, []string{"AwardNumber", "AwardTitle", "Amount"})
	if err != nil {
		t.Fatal(err)
	}
	// 5 short-string + 5 medium-string + 3 numeric = 13 features.
	if set.Len() != 13 {
		t.Fatalf("feature count = %d, names: %v", set.Len(), set.Names())
	}
	names := strings.Join(set.Names(), ",")
	for _, want := range []string{"AwardNumber_lev_sim", "AwardTitle_jaccard_word", "Amount_abs_diff"} {
		if !strings.Contains(names, want) {
			t.Errorf("missing feature %s", want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	l, r := twoTables(t)
	if _, err := Generate(l, r, corr, nil); err == nil {
		t.Fatal("empty order should error")
	}
	if _, err := Generate(l, r, corr, []string{"Nope"}); err == nil {
		t.Fatal("unmapped column should error")
	}
	if _, err := Generate(l, r, map[string]string{"AwardTitle": "Nope"}, []string{"AwardTitle"}); err == nil {
		t.Fatal("unknown right column should error")
	}
}

func TestVectorize(t *testing.T) {
	l, r := twoTables(t)
	set, err := Generate(l, r, corr, []string{"AwardNumber", "AwardTitle", "Amount"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}}
	x, err := set.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 || len(x[0]) != set.Len() {
		t.Fatalf("matrix dims %dx%d", len(x), len(x[0]))
	}
	// Pair (0,0): identical award number → exact = 1.
	nameIdx := map[string]int{}
	for i, n := range set.Names() {
		nameIdx[n] = i
	}
	if x[0][nameIdx["AwardNumber_exact"]] != 1 {
		t.Error("identical award numbers should have exact=1")
	}
	// Titles differ only in case → exact = 0 but jaccard_qgram3 < 1.
	if x[0][nameIdx["AwardTitle_exact"]] != 0 {
		t.Error("case-differing titles should have exact=0")
	}
	// Pair (1,1): right award number null → NaN feature.
	if !math.IsNaN(x[1][nameIdx["AwardNumber_exact"]]) {
		t.Error("null attribute should yield NaN feature")
	}
	// Left amount null → NaN.
	if !math.IsNaN(x[1][nameIdx["Amount_abs_diff"]]) {
		t.Error("null numeric should yield NaN feature")
	}
}

func TestAddCaseInsensitive(t *testing.T) {
	l, r := twoTables(t)
	set, err := Generate(l, r, corr, []string{"AwardTitle"})
	if err != nil {
		t.Fatal(err)
	}
	before := set.Len()
	if err := AddCaseInsensitive(set, l, corr, []string{"AwardTitle"}); err != nil {
		t.Fatal(err)
	}
	if set.Len() != before+3 {
		t.Fatalf("case features added = %d", set.Len()-before)
	}
	x, err := set.VectorizeCtx(context.Background(), l, r, []block.Pair{{A: 0, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	nameIdx := map[string]int{}
	for i, n := range set.Names() {
		nameIdx[n] = i
	}
	// Case-folded exact should now fire where raw exact did not.
	if x[0][nameIdx["AwardTitle_exact"]] != 0 {
		t.Error("raw exact should be 0")
	}
	if x[0][nameIdx["AwardTitle_exact_fold"]] != 1 {
		t.Error("folded exact should be 1")
	}
	if x[0][nameIdx["AwardTitle_jaccard_word_lower"]] != 1 {
		t.Error("lowercased jaccard should be 1")
	}
	// Duplicate add must fail.
	if err := AddCaseInsensitive(set, l, corr, []string{"AwardTitle"}); err == nil {
		t.Fatal("duplicate case features should error")
	}
	if err := AddCaseInsensitive(set, l, corr, []string{"Nope"}); err == nil {
		t.Fatal("unmapped column should error")
	}
}

func TestSetAddDuplicate(t *testing.T) {
	s := &Set{}
	f := Feature{Name: "x", LeftCol: "a", RightCol: "b"}
	if err := s.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(f); err == nil {
		t.Fatal("duplicate feature name should error")
	}
}

func TestImputer(t *testing.T) {
	x := [][]float64{
		{1, math.NaN(), 3},
		{3, 4, math.NaN()},
		{math.NaN(), 8, math.NaN()},
	}
	im, err := FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	means := im.Means()
	if means[0] != 2 || means[1] != 6 || means[2] != 3 {
		t.Fatalf("means = %v", means)
	}
	out, err := im.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range out {
		for j, v := range row {
			if math.IsNaN(v) {
				t.Fatalf("NaN survives at %d,%d", i, j)
			}
		}
	}
	if out[0][1] != 6 || out[2][0] != 2 {
		t.Fatalf("imputed values wrong: %v", out)
	}
	// Original untouched.
	if !math.IsNaN(x[0][1]) {
		t.Fatal("transform mutated input")
	}
	// Restricted to columns 0 and 2, it fills the narrowed rows with
	// their means and leaves im as it was.
	narrow, err := im.Restrict([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if got := narrow.Means(); !slices.Equal(got, []float64{2, 3}) {
		t.Fatalf("restricted means = %v", got)
	}
	if len(im.Means()) != 3 {
		t.Fatal("Restrict changed the imputer it was called on")
	}
	if _, err := im.Restrict([]bool{true}); err == nil {
		t.Fatal("read marks of another width should error")
	}
}

func TestImputerAllMissingColumn(t *testing.T) {
	x := [][]float64{{math.NaN()}, {math.NaN()}}
	im, err := FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := im.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 0 {
		t.Fatalf("all-missing column should impute 0, got %v", out[0][0])
	}
}

func TestImputerErrors(t *testing.T) {
	if _, err := FitImputer(nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if _, err := FitImputer([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix should error")
	}
	im, _ := FitImputer([][]float64{{1, 2}})
	if _, err := im.Transform([][]float64{{1}}); err == nil {
		t.Fatal("width mismatch should error")
	}
}
