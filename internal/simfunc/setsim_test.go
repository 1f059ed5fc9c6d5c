package simfunc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJaccard(t *testing.T) {
	if s := Jaccard(nil, nil); s != 1 {
		t.Errorf("empty = %v", s)
	}
	if s := Jaccard([]string{"a"}, nil); s != 0 {
		t.Errorf("one empty = %v", s)
	}
	a := []string{"corn", "fungicide", "guidelines"}
	b := []string{"corn", "fungicide", "rules"}
	if s := Jaccard(a, b); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("2/4 = %v", s)
	}
	// Duplicates collapse.
	if s := Jaccard([]string{"a", "a"}, []string{"a"}); s != 1 {
		t.Errorf("dup collapse = %v", s)
	}
}

// TestIntersectionSizeKeepsSides pins the sizes to their own argument
// when the larger set comes first (the probe swaps the maps internally),
// and checks the merge form agrees on sorted distinct input.
func TestIntersectionSizeKeepsSides(t *testing.T) {
	big := []string{"a", "b", "b", "c", "d"}
	small := []string{"c", "c", "z"}
	if inter, la, lb := intersectionSize(big, small); inter != 1 || la != 4 || lb != 2 {
		t.Errorf("big,small = %d,%d,%d, want 1,4,2", inter, la, lb)
	}
	if inter, la, lb := intersectionSize(small, big); inter != 1 || la != 2 || lb != 4 {
		t.Errorf("small,big = %d,%d,%d, want 1,2,4", inter, la, lb)
	}
	if n := SortedIntersectionSize([]string{"a", "b", "c", "d"}, []string{"c", "z"}); n != 1 {
		t.Errorf("sorted merge = %d, want 1", n)
	}
	if n := SortedIntersectionSize(nil, []string{"c"}); n != 0 {
		t.Errorf("empty merge = %d", n)
	}
}

func TestOverlapSize(t *testing.T) {
	a := []string{"development", "of", "ipm", "based", "corn"}
	b := []string{"ipm", "corn", "soy"}
	if n := OverlapSize(a, b); n != 2 {
		t.Errorf("overlap = %d", n)
	}
	if n := OverlapSize(nil, b); n != 0 {
		t.Errorf("empty overlap = %d", n)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	// The Section 7 motivation: short titles can reach high coefficient
	// even when raw overlap is below K=3.
	a := []string{"swamp", "dodder"}
	b := []string{"swamp", "dodder", "ecology"}
	if s := OverlapCoefficient(a, b); s != 1 {
		t.Errorf("contained set = %v", s)
	}
	if s := OverlapCoefficient(nil, nil); s != 1 {
		t.Errorf("both empty = %v", s)
	}
	if s := OverlapCoefficient(nil, b); s != 0 {
		t.Errorf("one empty = %v", s)
	}
	if s := OverlapCoefficient([]string{"x"}, b); s != 0 {
		t.Errorf("disjoint = %v", s)
	}
}

func TestDice(t *testing.T) {
	a := []string{"a", "b"}
	b := []string{"b", "c"}
	if s := Dice(a, b); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("dice = %v", s)
	}
	if s := Dice(nil, nil); s != 1 {
		t.Errorf("empty = %v", s)
	}
}

func TestCosineSet(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"a", "b", "c", "x"}
	if s := Cosine(a, b); math.Abs(s-0.75) > 1e-12 {
		t.Errorf("cosine = %v", s)
	}
	if Cosine(nil, nil) != 1 || Cosine(a, nil) != 0 {
		t.Error("cosine empty handling")
	}
}

func TestMongeElkan(t *testing.T) {
	a := []string{"PAUL", "ESKER"}
	b := []string{"ESKER", "PAUL"}
	if s := MongeElkan(a, b); s != 1 {
		t.Errorf("reordered names = %v", s)
	}
	if MongeElkan(nil, nil) != 1 || MongeElkan(a, nil) != 0 || MongeElkan(nil, a) != 0 {
		t.Error("empty handling")
	}
	// Near-match names should score high.
	if s := MongeElkan([]string{"Colquhoun"}, []string{"Colquhoun", "J"}); s < 0.99 {
		t.Errorf("best-match = %v", s)
	}
}

// Properties shared by the set similarities: range [0,1], symmetry,
// self-similarity 1.
func TestSetSimProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	type simFn struct {
		name string
		fn   func(a, b []string) float64
	}
	fns := []simFn{
		{"jaccard", Jaccard},
		{"overlapcoeff", OverlapCoefficient},
		{"dice", Dice},
		{"cosine", Cosine},
	}
	for _, sf := range fns {
		sf := sf
		rangeOK := func(a, b []string) bool {
			s := sf.fn(a, b)
			return s >= 0 && s <= 1+1e-12
		}
		if err := quick.Check(rangeOK, cfg); err != nil {
			t.Errorf("%s range: %v", sf.name, err)
		}
		sym := func(a, b []string) bool {
			return math.Abs(sf.fn(a, b)-sf.fn(b, a)) < 1e-12
		}
		if err := quick.Check(sym, cfg); err != nil {
			t.Errorf("%s symmetry: %v", sf.name, err)
		}
		self := func(a []string) bool { return sf.fn(a, a) == 1 }
		if err := quick.Check(self, cfg); err != nil {
			t.Errorf("%s self: %v", sf.name, err)
		}
	}
}

func TestTFIDFCosine(t *testing.T) {
	c := NewCorpus()
	c.Add([]string{"lab", "supplies"})
	c.Add([]string{"lab", "supplies"})
	c.Add([]string{"lab", "supplies"})
	c.Add([]string{"corn", "fungicide", "lab"})
	c.Add([]string{"swamp", "dodder", "ecology"})

	if c.Docs() != 5 {
		t.Fatalf("docs = %d", c.Docs())
	}
	// Rare tokens weigh more than ubiquitous ones.
	if c.IDF("corn") <= c.IDF("lab") {
		t.Error("rare token should have higher IDF")
	}
	// Identical docs are fully similar.
	if s := c.TFIDFCosine([]string{"corn", "fungicide"}, []string{"corn", "fungicide"}); math.Abs(s-1) > 1e-12 {
		t.Errorf("identical = %v", s)
	}
	// Sharing only a generic token scores lower than sharing a rare one.
	generic := c.TFIDFCosine([]string{"lab", "corn"}, []string{"lab", "dodder"})
	rare := c.TFIDFCosine([]string{"lab", "corn"}, []string{"corn", "dodder"})
	if generic >= rare {
		t.Errorf("generic overlap %v should score below rare overlap %v", generic, rare)
	}
	if c.TFIDFCosine(nil, nil) != 1 {
		t.Error("both empty should be 1")
	}
	if c.TFIDFCosine([]string{"a"}, nil) != 0 {
		t.Error("one empty should be 0")
	}
}

func TestTFIDFEmptyCorpus(t *testing.T) {
	c := NewCorpus()
	if c.IDF("x") != 0 {
		t.Error("empty corpus IDF should be 0")
	}
	if s := c.TFIDFCosine([]string{"a"}, []string{"a"}); s != 0 {
		t.Errorf("zero-weight vectors should score 0, got %v", s)
	}
}
