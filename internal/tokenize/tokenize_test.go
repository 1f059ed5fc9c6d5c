package tokenize

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unicode"
)

func TestWhitespace(t *testing.T) {
	got := Whitespace{}.Tokens("  corn  fungicide guidelines ")
	want := []string{"corn", "fungicide", "guidelines"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if (Whitespace{}).Name() != "ws" {
		t.Fatal("name")
	}
}

func TestWord(t *testing.T) {
	got := Word{}.Tokens("IPM-based (corn) fungicide, 2008!")
	want := []string{"IPM", "based", "corn", "fungicide", "2008"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if len((Word{}).Tokens("")) != 0 {
		t.Fatal("empty string should have no word tokens")
	}
	if got := (Word{}).Tokens("abc"); !reflect.DeepEqual(got, []string{"abc"}) {
		t.Fatalf("trailing token lost: %v", got)
	}
}

func TestQGram(t *testing.T) {
	g := QGram{Q: 3}
	got := g.Tokens("corn")
	want := []string{"cor", "orn"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Shorter than q: one whole-string token.
	if got := g.Tokens("ab"); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("short string: %v", got)
	}
	if g.Tokens("") != nil {
		t.Fatal("empty string should yield nil")
	}
	if g.Name() != "qgram3" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestQGramPadded(t *testing.T) {
	g := QGram{Q: 2, Pad: true}
	got := g.Tokens("ab")
	want := []string{"#a", "ab", "b$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if g.Name() != "qgram2p" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestQGramDefaultQ(t *testing.T) {
	g := QGram{}
	if g.Name() != "qgram3" {
		t.Fatalf("default name = %q", g.Name())
	}
	if got := g.Tokens("abcd"); len(got) != 2 {
		t.Fatalf("default q: %v", got)
	}
}

func TestQGramUnicode(t *testing.T) {
	g := QGram{Q: 2}
	got := g.Tokens("日本語")
	want := []string{"日本", "本語"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestDelimiter(t *testing.T) {
	d := Delimiter{Delims: "-|"}
	got := d.Tokens("2008-34103-19449|x")
	want := []string{"2008", "34103", "19449", "x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if d.Name() != "delim" {
		t.Fatal("name")
	}
}

func TestNormalize(t *testing.T) {
	in := `SWAMP DODDER (Cuscuta gronovii) "Applied" Ecology!`
	got := Normalize(in)
	want := `swamp dodder  cuscuta gronovii   applied  ecology `
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestStripSpecialKeepsWordChars(t *testing.T) {
	if got := StripSpecial("a-b.c,d"); got != "a-b.c,d" {
		t.Fatalf("hyphen/dot/comma should survive: %q", got)
	}
	if got := StripSpecial("a#b"); got != "a b" {
		t.Fatalf("hash should become space: %q", got)
	}
}

func TestSetAndSortedSet(t *testing.T) {
	toks := []string{"b", "a", "b", "c"}
	s := Set(toks)
	if len(s) != 3 {
		t.Fatalf("set size = %d", len(s))
	}
	ss := SortedSet(toks)
	if !reflect.DeepEqual(ss, []string{"a", "b", "c"}) {
		t.Fatalf("sorted set = %v", ss)
	}
}

// Property: q-gram token count equals max(len-q+1, 1) for non-empty strings
// without padding.
func TestQGramCountProperty(t *testing.T) {
	g := QGram{Q: 3}
	f := func(s string) bool {
		runes := []rune(s)
		got := len(g.Tokens(s))
		if len(runes) == 0 {
			return got == 0
		}
		want := len(runes) - 3 + 1
		if want < 1 {
			want = 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SortedSet output is sorted and duplicate-free.
func TestSortedSetProperty(t *testing.T) {
	f := func(toks []string) bool {
		ss := SortedSet(toks)
		if !sort.StringsAreSorted(ss) {
			return false
		}
		for i := 1; i < len(ss); i++ {
			if ss[i] == ss[i-1] {
				return false
			}
		}
		return len(ss) == len(Set(toks))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Word tokens contain only letters and digits.
func TestWordTokensAlnumProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range (Word{}).Tokens(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// keyCells are the texts a packed gram key must get right: empty, shorter
// than q, repeats, mixed case, non-ASCII, runes past U+FFFF, and invalid
// bytes next to the U+FFFD they decode to.
var keyCells = []string{
	"", "a", "ab", "abc", "abcabc", "Corn CORN corn", "Übergröße", "東京東京", "😀😀😀😀",
	"\xff\xfe corn", "�� corn", "İstanbul", "\U0010ffff\U0010ffffa", "\x00\x00\x00",
}

// TestQGramAppendKeys: AppendKeys returns one key per token of Tokens, in
// order, and two keys — of one cell or of two — are equal exactly when
// their tokens are; with lower, the tokens are those of Lower(s).
func TestQGramAppendKeys(t *testing.T) {
	for q := 0; q <= 3; q++ {
		for _, lower := range []bool{false, true} {
			g := QGram{Q: q}
			var toks []string
			var keys []uint64
			for _, s := range keyCells {
				keys = g.AppendKeys(keys, s, lower)
				if lower {
					s = Lower(s)
				}
				toks = append(toks, g.Tokens(s)...)
			}
			if len(keys) != len(toks) {
				t.Fatalf("q=%d lower=%v: %d keys for %d tokens", q, lower, len(keys), len(toks))
			}
			for i := range toks {
				for j := range toks {
					if (keys[i] == keys[j]) != (toks[i] == toks[j]) {
						t.Fatalf("q=%d lower=%v: tokens %q, %q have keys %#x, %#x", q, lower, toks[i], toks[j], keys[i], keys[j])
					}
				}
			}
		}
	}
}

func TestQGramPacks(t *testing.T) {
	for g, want := range map[QGram]bool{{}: true, {Q: 1}: true, {Q: 3}: true, {Q: 4}: false, {Q: 3, Pad: true}: false} {
		if g.Packs() != want {
			t.Fatalf("%s.Packs() = %v", g.Name(), !want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendKeys on grams that do not pack should panic")
		}
	}()
	QGram{Q: 4}.AppendKeys(nil, "abcde", false)
}

// TestWordTokensAllocateOnce: the words leave Tokens as one allocation.
func TestWordTokensAllocateOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Word{}.Tokens("corn fungicide guidelines for the north central states 2008") }); n != 1 {
		t.Fatalf("Tokens allocates %v times, want once", n)
	}
}
