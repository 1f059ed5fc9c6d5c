package label

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"emgo/internal/block"
)

func TestLabelStringParse(t *testing.T) {
	for _, l := range []Label{Unknown, Yes, No, Unsure} {
		got, err := ParseLabel(l.String())
		if err != nil || got != l {
			t.Errorf("round trip %v: %v %v", l, got, err)
		}
	}
	if _, err := ParseLabel("Maybe"); err == nil {
		t.Fatal("bad label should error")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	p1 := block.Pair{A: 1, B: 2}
	if err := s.Set(p1, Yes); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(p1, Unsure); err != nil { // revision
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Get(p1) != Unsure || !s.Has(p1) {
		t.Fatal("store state wrong")
	}
	if s.Get(block.Pair{A: 9, B: 9}) != Unknown {
		t.Fatal("absent pair should be Unknown")
	}
	if err := s.Set(p1, Unknown); err == nil {
		t.Fatal("storing Unknown should error")
	}
	if got := s.Pairs(); len(got) != 1 || got[0] != p1 {
		t.Fatal("pairs order")
	}
}

func TestStoreCountsAndDecided(t *testing.T) {
	s := NewStore()
	s.Set(block.Pair{A: 0, B: 0}, Yes)
	s.Set(block.Pair{A: 0, B: 1}, No)
	s.Set(block.Pair{A: 0, B: 2}, No)
	s.Set(block.Pair{A: 0, B: 3}, Unsure)
	c := s.Counts()
	if c.Yes != 1 || c.No != 2 || c.Unsure != 1 || c.Total() != 4 {
		t.Fatalf("counts: %+v", c)
	}
	pairs, y := s.Decided()
	if len(pairs) != 3 || len(y) != 3 {
		t.Fatalf("decided: %v %v", pairs, y)
	}
	if y[0] != 1 || y[1] != 0 || y[2] != 0 {
		t.Fatalf("decided labels: %v", y)
	}
}

func TestStoreClone(t *testing.T) {
	s := NewStore()
	s.Set(block.Pair{A: 0, B: 0}, Yes)
	c := s.Clone()
	c.Set(block.Pair{A: 1, B: 1}, No)
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone not independent")
	}
}

func TestStoreCSVRoundTrip(t *testing.T) {
	s := NewStore()
	s.Set(block.Pair{A: 3, B: 7}, Yes)
	s.Set(block.Pair{A: 1, B: 2}, Unsure)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Get(block.Pair{A: 3, B: 7}) != Yes || got.Get(block.Pair{A: 1, B: 2}) != Unsure {
		t.Fatal("round trip lost labels")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("wrong column count should error")
	}
	if _, err := ReadCSV(strings.NewReader("left,right,label\nx,2,Yes\n")); err == nil {
		t.Fatal("bad left index should error")
	}
	if _, err := ReadCSV(strings.NewReader("left,right,label\n1,y,Yes\n")); err == nil {
		t.Fatal("bad right index should error")
	}
	if _, err := ReadCSV(strings.NewReader("left,right,label\n1,2,Maybe\n")); err == nil {
		t.Fatal("bad label should error")
	}
}

func TestCrossCheck(t *testing.T) {
	a, b := NewStore(), NewStore()
	p1 := block.Pair{A: 0, B: 0}
	p2 := block.Pair{A: 0, B: 1}
	p3 := block.Pair{A: 0, B: 2}
	a.Set(p1, Yes)
	b.Set(p1, Yes)
	a.Set(p2, Yes)
	b.Set(p2, No) // disagreement
	a.Set(p3, No) // b never labeled it: not a mismatch
	got := CrossCheck(a, b)
	if len(got) != 1 || got[0] != p2 {
		t.Fatalf("cross check: %v", got)
	}
}

func TestToolSingleWriterProtocol(t *testing.T) {
	store := NewStore()
	tool := NewTool(store)
	p1 := block.Pair{A: 0, B: 0}
	p2 := block.Pair{A: 0, B: 1}

	if n := tool.Upload([]block.Pair{p1, p2, p1}); n != 2 {
		t.Fatalf("queued %d", n)
	}
	if err := tool.OpenSession(""); err == nil {
		t.Fatal("empty user should error")
	}
	if err := tool.OpenSession("student"); err != nil {
		t.Fatal(err)
	}
	if err := tool.OpenSession("professor"); err == nil {
		t.Fatal("second session must be rejected while first is active")
	}
	if tool.session != "student" {
		t.Fatal("active session")
	}
	if err := tool.Submit("professor", p1, Yes); err == nil {
		t.Fatal("non-holder submit should error")
	}
	if err := tool.Submit("student", block.Pair{A: 9, B: 9}, Yes); err == nil {
		t.Fatal("unqueued pair should error")
	}
	if err := tool.Submit("student", p1, Yes); err != nil {
		t.Fatal(err)
	}
	if len(tool.Pending()) != 1 {
		t.Fatal("queue should shrink")
	}
	if err := tool.CloseSession("professor"); err == nil {
		t.Fatal("non-holder close should error")
	}
	if err := tool.CloseSession("student"); err != nil {
		t.Fatal(err)
	}
	// Next labeler can now work.
	if err := tool.OpenSession("professor"); err != nil {
		t.Fatal(err)
	}
	if err := tool.Submit("professor", p2, Unsure); err != nil {
		t.Fatal(err)
	}
	if store.Get(p1) != Yes || store.Get(p2) != Unsure {
		t.Fatal("labels not stored")
	}
}

func TestToolUploadSkipsLabeled(t *testing.T) {
	store := NewStore()
	p := block.Pair{A: 0, B: 0}
	store.Set(p, Yes)
	tool := NewTool(store)
	if n := tool.Upload([]block.Pair{p}); n != 0 {
		t.Fatal("already-labeled pair should not queue")
	}
}

func TestToolLabelAll(t *testing.T) {
	store := NewStore()
	tool := NewTool(store)
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 2, B: 2}}
	tool.Upload(pairs)
	if err := tool.LabelAll("x", func(p block.Pair) Label { return Yes }); err == nil {
		t.Fatal("LabelAll without session should error")
	}
	tool.OpenSession("expert")
	err := tool.LabelAll("expert", func(p block.Pair) Label {
		if p.A == 1 {
			return No
		}
		return Yes
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tool.Pending()) != 0 {
		t.Fatal("queue should drain")
	}
	c := store.Counts()
	if c.Yes != 2 || c.No != 1 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestExpertDeterministic(t *testing.T) {
	e := &Expert{Truth: func(p block.Pair) bool { return p.A == p.B }}
	if e.Label(block.Pair{A: 1, B: 1}) != Yes {
		t.Fatal("true match should be Yes")
	}
	if e.Label(block.Pair{A: 1, B: 2}) != No {
		t.Fatal("non-match should be No")
	}
	if e.TruthLabel(block.Pair{A: 1, B: 1}) != Yes || e.TruthLabel(block.Pair{A: 0, B: 2}) != No {
		t.Fatal("truth label")
	}
}

func TestExpertHardPairsAlwaysUnsure(t *testing.T) {
	e := &Expert{
		Truth: func(p block.Pair) bool { return true },
		Hard:  func(p block.Pair) bool { return p.A == 0 },
		Rng:   rand.New(rand.NewSource(1)),
	}
	if e.Label(block.Pair{A: 0, B: 5}) != Unsure {
		t.Fatal("hard pair should be Unsure")
	}
	if e.Revise(block.Pair{A: 0, B: 5}) != Unsure {
		t.Fatal("hard pair stays Unsure on revision")
	}
	if e.Revise(block.Pair{A: 1, B: 5}) != Yes {
		t.Fatal("revision should return truth for non-hard pairs")
	}
}

func TestExpertNoiseAndRevision(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := &Expert{
		Truth:        func(p block.Pair) bool { return p.A%2 == 0 },
		HesitateRate: 0.3,
		MistakeRate:  0.1,
		Rng:          rng,
	}
	hesitated, mistakes := 0, 0
	n := 2000
	for i := 0; i < n; i++ {
		p := block.Pair{A: i, B: i}
		truth := e.Truth(p)
		l := e.Label(p)
		if truth && l == Unsure {
			hesitated++
		}
		if (truth && l == No) || (!truth && l == Yes) {
			mistakes++
		}
		// Revision always restores truth.
		if r := e.Revise(p); (r == Yes) != truth {
			t.Fatal("revision must match truth")
		}
	}
	if hesitated == 0 {
		t.Fatal("expected some hesitation")
	}
	if mistakes == 0 {
		t.Fatal("expected some mistakes")
	}
	// Rates are loosely calibrated: hesitation only applies to the ~1000
	// true pairs.
	if hesitated < 150 || hesitated > 500 {
		t.Fatalf("hesitated = %d out of ~1000 true pairs", hesitated)
	}
}
