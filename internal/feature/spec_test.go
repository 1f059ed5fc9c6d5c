package feature

import (
	"context"
	"math"
	"testing"

	"emgo/internal/block"
	"emgo/internal/table"
)

func TestComputeRegistry(t *testing.T) {
	fn, ok := Compute("jaccard_word")
	if !ok || fn == nil {
		t.Fatal("jaccard_word should be registered")
	}
	if _, ok := Compute("no_such_sim"); ok {
		t.Fatal("unknown key should not resolve")
	}
	// Sanity: the registered function behaves like a similarity.
	if got := fn(table.S("a b c"), table.S("a b c")); got != 1 {
		t.Fatalf("self similarity = %v", got)
	}
	if got := fn(table.Null(table.String), table.S("x")); !math.IsNaN(got) {
		t.Fatal("null should yield NaN")
	}
}

func TestNewFeature(t *testing.T) {
	f, err := New("Title", "ProjectTitle", "exact_fold")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "Title_exact_fold" || f.Func != "exact_fold" || f.RightCol != "ProjectTitle" {
		t.Fatalf("feature: %+v", f)
	}
	if _, err := New("a", "b", "bogus"); err == nil {
		t.Fatal("unknown func should error")
	}
}

func TestDescriptorsRoundTrip(t *testing.T) {
	l, r := twoTables(t)
	fs, err := Generate(l, r, corr, []string{"AwardNumber", "AwardTitle", "Amount"})
	if err != nil {
		t.Fatal(err)
	}
	if err := AddCaseInsensitive(fs, l, corr, []string{"AwardTitle"}); err != nil {
		t.Fatal(err)
	}
	descs, err := fs.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != fs.Len() {
		t.Fatalf("descriptors = %d features = %d", len(descs), fs.Len())
	}
	back, err := FromDescriptors(descs)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != fs.Len() {
		t.Fatal("round trip lost features")
	}
	// Vectors must be identical.
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}}
	x1, err := fs.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := back.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		for j := range x1[i] {
			a, b := x1[i][j], x2[i][j]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("vector mismatch at %d,%d: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestDescriptorsRejectCustomFeatures(t *testing.T) {
	s := &Set{}
	if err := s.Add(Feature{Name: "custom", LeftCol: "a", RightCol: "b",
		Compute: func(a, b table.Value) float64 { return 1 }}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Descriptors(); err == nil {
		t.Fatal("custom features must not serialize")
	}
	s2 := &Set{}
	s2.Add(Feature{Name: "x", LeftCol: "a", RightCol: "b", Func: "ghost"})
	if _, err := s2.Descriptors(); err == nil {
		t.Fatal("unknown func key must not serialize")
	}
}

func TestFromDescriptorsErrors(t *testing.T) {
	if _, err := FromDescriptors([]Descriptor{{Name: "x", Func: "ghost"}}); err == nil {
		t.Fatal("unknown func should error")
	}
	// Default naming when Name omitted.
	fs, err := FromDescriptors([]Descriptor{{LeftCol: "T", RightCol: "T", Func: "exact"}})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Features[0].Name != "T_exact" {
		t.Fatalf("default name = %q", fs.Features[0].Name)
	}
	// Duplicate names rejected.
	if _, err := FromDescriptors([]Descriptor{
		{Name: "same", LeftCol: "T", RightCol: "T", Func: "exact"},
		{Name: "same", LeftCol: "T", RightCol: "T", Func: "jaro"},
	}); err == nil {
		t.Fatal("duplicate names should error")
	}
}

func TestImputerFromMeans(t *testing.T) {
	im := ImputerFromMeans([]float64{1, 2})
	out, err := im.Transform([][]float64{{math.NaN(), 5}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 1 || out[0][1] != 5 {
		t.Fatalf("rebuilt imputer wrong: %v", out)
	}
}
